// Package chord is a fixture stand-in for the real overlay package:
// lockorder resolves sinks and sends by import path + receiver + method
// name, so only the shape matters, not the behaviour.
package chord

type Message interface{}

type Deliverable struct {
	Msg    Message
	Target uint64
}

type Node struct{}

func (n *Node) Send(msg Message, target uint64) (*Node, int, error) { return nil, 0, nil }
func (n *Node) DirectSend(msg Message, dst *Node) bool              { return false }
func (n *Node) SendHinted(msg Message, target uint64, hint *Node, also ...uint64) (*Node, int, error) {
	return nil, 0, nil
}
func (n *Node) Multisend(batch []Deliverable, recipients []*Node) ([]*Node, int, error) {
	return nil, 0, nil
}
func (n *Node) MultisendIterative(batch []Deliverable) ([]*Node, int, error) {
	return nil, 0, nil
}
