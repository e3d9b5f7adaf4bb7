package durable

import (
	"fmt"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// Snapshot file codec. The whole file is one CRC frame (written to a temp
// path, fsynced, renamed into place — so it is either the complete old
// snapshot or the complete new one). Its payload:
//
//	coveredLSN uvarint      WAL records with lsn <= coveredLSN are stale
//	meta       bytes        engine snapMeta message (engine codec)
//	hasView    uvarint      0/1
//	[view      MemberView]  latest adopted membership view, if any
//	down       []string     crashed-pending node keys (count + strings)
//	nodes      count        per-node handoff sections:
//	  key      string
//	  msg      bytes        engine handoff message (engine codec)

// snapImage is a decoded snapshot file.
type snapImage struct {
	covered uint64
	meta    chord.Message // engine snapMeta message
	view    *wire.MemberView
	down    []string
	nodes   []engine.NodeSnapshot
}

// walk lists the payload's fields in order.
func (img *snapImage) walk(c *wire.Coder) {
	c.Uvarint(&img.covered)
	walkFramed(c, "meta", &img.meta)
	hasView := img.view != nil
	c.Bool(&hasView)
	if hasView {
		if c.Decoding() {
			img.view = new(wire.MemberView)
		}
		img.view.Walk(c)
	}
	c.Strings(&img.down)
	wire.Slice(c, &img.nodes)
	for i := range img.nodes {
		ns := &img.nodes[i]
		c.String(&ns.Key)
		walkFramed(c, "node "+ns.Key, &ns.Msg)
	}
}

// walkFramed walks an engine message carried as length-prefixed bytes; what
// names it in an error.
func walkFramed(c *wire.Coder, what string, msg *chord.Message) {
	var frame []byte
	if !c.Decoding() {
		var w wire.Buffer
		if err := engine.EncodeMessage(&w, *msg); err != nil {
			c.Fail(fmt.Errorf("durable: encode snapshot %s: %w", what, err))
			return
		}
		frame = w.Bytes()
	}
	c.Bytes(&frame)
	if !c.Decoding() || c.Err() != nil {
		return
	}
	var err error
	if *msg, err = engine.DecodeMessage(wire.NewReader(frame), c.Catalog); err != nil {
		c.Fail(fmt.Errorf("durable: decode snapshot %s: %w", what, err))
	}
}

// encodeSnapshot renders a snapshot image to its framed file bytes.
func encodeSnapshot(img snapImage) ([]byte, error) {
	var w wire.Buffer
	c := wire.Encoder(&w)
	img.walk(&c)
	if err := c.Flush(&w); err != nil {
		return nil, err
	}
	return appendFramedPayload(nil, w.Bytes()), nil
}

// decodeSnapshot parses a snapshot file image.
func decodeSnapshot(data []byte, catalog *relation.Catalog) (snapImage, error) {
	var img snapImage
	payload, err := parseOneFrame(data)
	if err != nil {
		return img, fmt.Errorf("durable: snapshot: %w", err)
	}
	c := wire.Decoder(wire.NewReader(payload), catalog, nil)
	img.walk(&c)
	return img, c.Err()
}
