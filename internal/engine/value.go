// Value-keyed dispatch: the engine half of twigm's value groups
// (internal/twigm/valuegroup.go).
//
// A value-keyed machine — a residual of one [. = 'literal'] element step —
// joins the value group of its (anchor, axis, name test) in the epoch. The
// group is one machine: its host, the member in the lowest slot, is routed
// like any machine, and its run evaluates every member at once (a <f17>
// wakes the group testing f17, not its machines). The other members appear in
// no routing table and have no run in any session: at the end tag the host's
// run looks the value up and emits each result once per member filed under
// it, and the router's emission buffer puts those results in the event's
// delivery order by slot (router.settle).
//
// Groups are prefix sharing: an engine built with DisablePrefixSharing
// compiles no value-keyed program and so has none.
package engine

import (
	"repro/internal/cow"
	"repro/internal/twigm"
)

// join files slot's value-keyed machine under literal in the group of its
// shape, starting the group if it is the first of it.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) join(slot int32, p *twigm.Program, literal string) {
	ep.valueKeyed++
	key := p.GroupKey(ep.anchors.At(int(slot)))
	for gid := range int32(ep.groups.Len()) {
		if g := ep.groups.At(int(gid)); g != nil && g.Key() == key {
			ep.setGroup(gid, g.With(slot, literal), p)
			ep.groupOf.Set(int(slot), gid)
			return
		}
	}
	gid := int32(ep.groups.Len())
	ep.groups.Append(nil)
	ep.valueGroups++
	ep.groupOf.Set(int(slot), gid)
	ep.setGroup(gid, twigm.NewValueGroup(p, key.Anchor, []twigm.ValueMember{{ID: slot, Literal: literal}}), p)
}

// leave takes slot's machine out of group gid. A group whose last member
// leaves keeps its ID, dead, until the next regroup.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) leave(slot int32, p *twigm.Program, gid int32) {
	literal, _ := p.ValueKey()
	next := ep.groups.At(int(gid)).Without(slot, literal)
	if next == nil {
		ep.valueGroups--
	}
	ep.valueKeyed--
	ep.setGroup(gid, next, p)
	ep.groupOf.Set(int(slot), -1)
}

// setGroup makes next group gid (nil for a dead group) and moves the group's
// routes when its host changes; p is a program of the group's shape, whose
// routes are every member's. Both hosts' routed status changes, so both are
// in the epoch's delta.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) setGroup(gid int32, next *twigm.ValueGroup, p *twigm.Program) {
	from, to := int32(-1), int32(-1)
	if g := ep.groups.At(int(gid)); g != nil {
		from = g.Host()
	}
	if next != nil {
		to = next.Host()
	}
	ep.groups.Set(int(gid), next)
	if from != to {
		if from >= 0 {
			ep.unroute(from, p)
			ep.touch(from)
		}
		if to >= 0 {
			ep.route(to, p)
			ep.touch(to)
		}
	}
}

// regroup rebuilds the value groups from the live machines, one pass per
// group: after a bulk build, and whenever slots or anchors are renumbered.
// The routing tables are the caller's to rebuild.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) regroup() {
	ep.groups, ep.groupOf = cow.Table[*twigm.ValueGroup]{}, cow.Table[int32]{}
	ep.valueGroups, ep.valueKeyed = 0, 0
	index := make(map[twigm.GroupKey]int32)
	var members [][]twigm.ValueMember
	for slot := range ep.progs.Len() {
		gid := int32(-1)
		if p := ep.progs.At(slot); p != nil {
			if literal, ok := p.ValueKey(); ok {
				key := p.GroupKey(ep.anchors.At(slot))
				var seen bool
				if gid, seen = index[key]; !seen {
					gid = int32(len(members))
					index[key] = gid
					members = append(members, nil)
				}
				members[gid] = append(members[gid], twigm.ValueMember{ID: int32(slot), Literal: literal})
				ep.valueKeyed++
			}
		}
		ep.groupOf.Append(gid)
	}
	for _, ms := range members {
		first := int(ms[0].ID)
		ep.groups.Append(twigm.NewValueGroup(ep.progs.At(first), ep.anchors.At(first), ms))
	}
	ep.valueGroups = len(members)
}

// routed reports whether live slot's machine is routed: it is no group's
// member, or it hosts its group.
func (ep *epoch) routed(slot int32) bool {
	gid := ep.groupOf.At(int(slot))
	return gid < 0 || ep.groups.At(int(gid)).Host() == slot
}

// group returns the value group routed slot hosts, nil for a machine of its
// own query.
//
//vitex:hotpath
func (ep *epoch) group(slot int32) *twigm.ValueGroup {
	if gid := ep.groupOf.At(int(slot)); gid >= 0 {
		return ep.groups.At(int(gid))
	}
	return nil
}
