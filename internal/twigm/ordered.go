package twigm

import "fmt"

// orderedSlot is one window position of the re-sequencer: a resolved seq
// emits its candidate, or nothing when it was dropped.
type orderedSlot struct {
	cand     *candidate
	resolved bool
}

// orderedBuf re-sequences deliveries into document order. Candidates are
// created in document order of their result nodes (seq); each seq resolves
// exactly once — either with a Result (emitted) or dropped — and the buffer
// releases the longest resolved prefix, making each released result's
// fragment a string only then. This implements the Ordered option:
// it trades result latency (a solution waits for every earlier-created
// candidate to resolve) for strict document order, which is what the DOM
// oracle produces and what the equivalence tests compare.
//
// The window [next, expected) lives in a growable ring so steady-state
// resolution allocates nothing; capacity is retained across Reset.
type orderedBuf struct {
	slots    []orderedSlot // ring; slot of seq s is (head + s - next) % len
	head     int           // ring index of seq == next
	next     int64         // lowest unresolved seq
	expected int64         // number of candidates created
}

func (o *orderedBuf) reset() {
	for i := range o.slots {
		o.slots[i] = orderedSlot{}
	}
	o.head = 0
	o.next = 0
	o.expected = 0
}

// expect widens the window to include seq. Seqs arrive in creation order,
// so the window grows one slot at a time.
func (o *orderedBuf) expect(seq int64) {
	o.expected = seq + 1
	if need := int(o.expected - o.next); need > len(o.slots) {
		o.grow(need)
	}
}

// grow re-lays the ring into a larger array, keeping the window in place.
func (o *orderedBuf) grow(need int) {
	newCap := len(o.slots) * 2
	if newCap < 16 {
		newCap = 16
	}
	for newCap < need {
		newCap *= 2
	}
	ns := make([]orderedSlot, newCap)
	n := int(o.expected - o.next - 1) // live slots before the one being added
	for i := 0; i < n; i++ {
		ns[i] = o.slots[(o.head+i)%len(o.slots)]
	}
	o.slots = ns
	o.head = 0
}

// resolve records the fate of seq: delivered as c, or dropped when c is nil.
func (o *orderedBuf) resolve(seq int64, c *candidate) {
	i := (o.head + int(seq-o.next)) % len(o.slots)
	o.slots[i] = orderedSlot{cand: c, resolved: true}
}

// pop releases the lowest seq once it has resolved: its candidate, nil when
// it was dropped, and false when it is still pending (or none is left).
func (o *orderedBuf) pop() (*candidate, bool) {
	if o.next >= o.expected {
		return nil, false
	}
	s := &o.slots[o.head]
	if !s.resolved {
		return nil, false
	}
	c := s.cand
	*s = orderedSlot{}
	o.head = (o.head + 1) % len(o.slots)
	o.next++
	return c, true
}

// checkDrained verifies every candidate resolved by end of document — an
// internal invariant of the machine (all stacks are empty then, so no
// reference can remain).
func (o *orderedBuf) checkDrained() error {
	if o.next != o.expected {
		return fmt.Errorf("twigm: internal: %d ordered results undelivered at end of document (next=%d expected=%d)",
			o.expected-o.next, o.next, o.expected)
	}
	return nil
}
