package wire

// MemberView is the daemon membership gossip payload: the authoritative
// list of overlay processes at a given version, stamped with the address
// of the process that originated the change. Views are totally ordered by
// (Version, ring position of Origin): version first, and concurrent
// same-version views — two processes each incrementing the same base in
// the same instant — are arbitrated by the deterministic hash order of
// their originators, so every process picks the same winner with no
// coordination. Replayed or reordered views are harmless: a receiver
// adopts a view iff it succeeds the one it holds. Procs is kept sorted by
// the daemon layer so that equal views are byte-identical on the wire and
// node ownership (successor-of-hash over Procs) is deterministic for
// every holder of the same view.
type MemberView struct {
	Version uint64
	Origin  string
	Procs   []string
}

// Walk lists the view's fields in wire order; its size, encoding and
// decoding all run it.
func (v *MemberView) Walk(c *Coder) {
	c.Uvarint(&v.Version)
	c.String(&v.Origin)
	c.Strings(&v.Procs)
}

// EncodeMemberView appends v's wire form to w.
func EncodeMemberView(w *Buffer, v *MemberView) {
	c := Encoder(w)
	v.Walk(&c)
	_ = c.Flush(w) // encoding a view cannot fail
}

// DecodeMemberView reads one view encoded by EncodeMemberView.
func DecodeMemberView(r *Reader) (*MemberView, error) {
	c := Decoder(r, nil, nil)
	v := new(MemberView)
	v.Walk(&c)
	if err := c.Sync(r); err != nil {
		return nil, err
	}
	return v, nil
}
