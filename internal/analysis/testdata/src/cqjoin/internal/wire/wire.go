// Package wire is a fixture stand-in for the real codec buffer.
package wire

type Buffer struct{ b []byte }

func (w *Buffer) PutUvarint(v uint64) {}
func (w *Buffer) PutVarint(v int64)   {}
func (w *Buffer) PutString(s string)  {}

// Coder stands in for the bidirectional field walker: in encoding mode a
// leaf is a Put.
type Coder struct{}

func (c *Coder) String(s *string) {}
