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

import "repro/internal/twigm"

// join files slot's value-keyed machine under literal in the group of its
// shape, starting the group if it is the first of it.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) join(slot int32, p *twigm.Program, literal string) {
	key := p.GroupKey(ep.anchors[slot])
	for gid, g := range ep.groups {
		if g != nil && g.Key() == key {
			ep.setGroup(int32(gid), g.With(slot, literal), p)
			ep.groupOf[slot] = int32(gid)
			return
		}
	}
	ep.groupOf[slot] = int32(len(ep.groups))
	ep.groups = append(ep.groups, nil)
	ep.setGroup(ep.groupOf[slot], twigm.NewValueGroup(p, key.Anchor, []twigm.ValueMember{{ID: slot, Literal: literal}}), p)
}

// leave takes slot's machine out of group gid. A group whose last member
// leaves keeps its ID, dead, until the next regroup.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) leave(slot int32, p *twigm.Program, gid int32) {
	literal, _ := p.ValueKey()
	ep.setGroup(gid, ep.groups[gid].Without(slot, literal), p)
	ep.groupOf[slot] = -1
}

// setGroup makes next group gid (nil for a dead group) and moves the group's
// routes when its host changes; p is a program of the group's shape, whose
// routes are every member's.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) setGroup(gid int32, next *twigm.ValueGroup, p *twigm.Program) {
	from, to := int32(-1), int32(-1)
	if g := ep.groups[gid]; g != nil {
		from = g.Host()
	}
	if next != nil {
		to = next.Host()
	}
	if from != to {
		if from >= 0 {
			ep.unroute(from, p)
		}
		if to >= 0 {
			ep.route(to, p)
		}
	}
	ep.groups[gid] = next
}

// regroup rebuilds the value groups from the live machines, one pass per
// group: after a bulk build, and whenever slots or anchors are renumbered.
// The routing tables are the caller's to rebuild.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) regroup() {
	ep.groups = nil
	ep.groupOf = make([]int32, len(ep.progs))
	index := make(map[twigm.GroupKey]int32)
	var members [][]twigm.ValueMember
	for slot, p := range ep.progs {
		ep.groupOf[slot] = -1
		if p == nil {
			continue
		}
		literal, ok := p.ValueKey()
		if !ok {
			continue
		}
		key := p.GroupKey(ep.anchors[slot])
		gid, seen := index[key]
		if !seen {
			gid = int32(len(members))
			index[key] = gid
			members = append(members, nil)
		}
		members[gid] = append(members[gid], twigm.ValueMember{ID: int32(slot), Literal: literal})
		ep.groupOf[slot] = gid
	}
	for _, ms := range members {
		first := ms[0].ID
		ep.groups = append(ep.groups, twigm.NewValueGroup(ep.progs[first], ep.anchors[first], ms))
	}
}

// routed reports whether live slot's machine is routed: it is no group's
// member, or it hosts its group.
func (ep *epoch) routed(slot int32) bool {
	gid := ep.groupOf[slot]
	return gid < 0 || ep.groups[gid].Host() == slot
}

// group returns the value group routed slot hosts, nil for a machine of its
// own query.
//
//vitex:hotpath
func (ep *epoch) group(slot int32) *twigm.ValueGroup {
	if gid := ep.groupOf[slot]; gid >= 0 {
		return ep.groups[gid]
	}
	return nil
}
