// Value-keyed dispatch: the engine half of twigm's value groups
// (internal/twigm/valuegroup.go).
//
// A value-keyed machine — a residual of one [. = 'literal'] element step —
// is not routed at all. Its slot joins the value group of its (anchor, axis,
// name test) in the epoch, and the router delivers each event the members'
// machines would see to the group once: a <f17> wakes the groups testing f17,
// not the machines. The group pushes, records and accumulates the string-value
// once; at the end tag it confirms the candidate for the members filed under
// the value, and only those are visited, each at its slot's place in the
// event's delivery order, so emission order across machines is the one a
// delivery to every member would give. A grouped machine has no twigm.Run in
// any session.
//
// Groups are prefix sharing: an engine built with DisablePrefixSharing
// compiles no value-keyed program and so has none.
package engine

import (
	"slices"

	"repro/internal/sax"
	"repro/internal/twigm"
)

// ---- epoch tables ----

// join files slot's value-keyed machine under literal in the group of its
// shape, starting the group if it is the first of it.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) join(slot int32, p *twigm.Program, literal string) {
	key := p.GroupKey(ep.anchors[slot])
	name := p.ElemNameIDs()[0] // the step's one name
	for _, gid := range ep.groupSubs[name] {
		if g := ep.groups[gid]; g.Key() == key {
			ep.groups[gid] = g.With(slot, literal)
			ep.groupOf[slot] = gid
			return
		}
	}
	gid := int32(len(ep.groups))
	ep.groups = append(ep.groups, twigm.NewValueGroup(p, key.Anchor, []twigm.ValueMember{{ID: slot, Literal: literal}}))
	ep.groupSubs[name] = append(ep.groupSubs[name], gid)
	ep.groupOf[slot] = gid
}

// leave takes slot's machine out of group gid. A group whose last member
// leaves keeps its ID, dead, until the next regroup.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) leave(slot int32, p *twigm.Program, gid int32) {
	literal, _ := p.ValueKey()
	g := ep.groups[gid].Without(slot, literal)
	ep.groups[gid] = g
	if g == nil {
		name := p.ElemNameIDs()[0]
		ep.groupSubs[name] = without(ep.groupSubs[name], gid)
	}
	ep.groupOf[slot] = -1
}

// regroup rebuilds the value groups from the live machines, one pass per
// group: after a bulk build, and whenever slots or anchors are renumbered.
//
//vitex:cowmut called on unpublished epochs only
func (ep *epoch) regroup(symsLen int) {
	ep.groups = nil
	ep.groupSubs = make([][]int32, symsLen+1)
	ep.groupOf = make([]int32, len(ep.progs))
	index := make(map[twigm.GroupKey]int32)
	var members [][]twigm.ValueMember
	var first []int32 // group ID -> the slot of its first member
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
			first = append(first, int32(slot))
		}
		members[gid] = append(members[gid], twigm.ValueMember{ID: int32(slot), Literal: literal})
		ep.groupOf[slot] = gid
	}
	for gid, ms := range members {
		g := twigm.NewValueGroup(ep.progs[first[gid]], ep.anchors[first[gid]], ms)
		ep.groups = append(ep.groups, g)
		ep.groupSubs[g.NameID()] = append(ep.groupSubs[g.NameID()], int32(gid))
	}
}

// ---- routing ----

// groupWake is a group the document woke and the event that woke it.
type groupWake struct {
	group int32
	at    int64
}

// visit is one delivery to a grouped machine: its slot, its group and the
// bucket of the group it is filed under.
type visit struct {
	slot, group, bucket int32
}

func cmpVisit(a, b visit) int { return int(a.slot) - int(b.slot) }

// rekeyGroupRuns rebuilds a router's group-indexed runs for new group tables,
// keeping the run of every group whose key survives (its state is reset when
// it next wakes anyway; what it keeps is its warmed-up buffers).
func rekeyGroupRuns(old []*twigm.ValueGroup, oldRuns []*twigm.GroupRun, groups []*twigm.ValueGroup) []*twigm.GroupRun {
	if len(groups) == 0 {
		return nil
	}
	byKey := make(map[twigm.GroupKey]*twigm.GroupRun, len(oldRuns))
	for gid, g := range old {
		if g != nil && oldRuns[gid] != nil {
			byKey[g.Key()] = oldRuns[gid]
		}
	}
	runs := make([]*twigm.GroupRun, len(groups))
	for gid, g := range groups {
		if g == nil {
			continue
		}
		if r := byKey[g.Key()]; r != nil {
			runs[gid] = r
		} else {
			runs[gid] = new(twigm.GroupRun)
		}
	}
	return runs
}

// wakeGroup prepares group g for the current document on its first delivery,
// as wake does a machine: every member is woken with it.
//
//vitex:hotpath
func (rt *router) wakeGroup(g int32, idx int64) {
	rt.groupWokenAt[g] = rt.gen
	rt.wokenGroups = append(rt.wokenGroups, groupWake{group: g, at: idx})
	vg := rt.groups[g]
	var anchor *twigm.AnchorStack
	if a := vg.Key().Anchor; a >= 0 {
		anchor = rt.prun.Stack(a)
	}
	rt.groupRuns[g].Reset(vg, rt.opts, &rt.rec, anchor)
}

// startGroups delivers a start-element event to the groups whose step names
// it (every group on a broadcast), before any machine sees it.
//
//vitex:hotpath
func (rt *router) startGroups(ev *sax.Event, idx int64, broadcast bool) {
	if broadcast {
		for g, vg := range rt.groups {
			if vg != nil {
				rt.startGroup(int32(g), ev, idx)
			}
		}
		return
	}
	if id := ev.NameID; id > 0 && int(id) < len(rt.groupSubs) {
		for _, g := range rt.groupSubs[id] {
			rt.startGroup(g, ev, idx)
		}
	}
}

//vitex:hotpath
func (rt *router) startGroup(g int32, ev *sax.Event, idx int64) {
	if rt.groupWokenAt[g] != rt.gen {
		rt.wakeGroup(g, idx)
	}
	rt.deliveries++
	if rt.groupRuns[g].StartElement(ev, idx) {
		rt.openGroups.set(g, true)
		rt.addVisits(g)
	}
}

// endGroups delivers an end-element event to the groups with open entries.
//
//vitex:hotpath
func (rt *router) endGroups(ev *sax.Event, idx int64) {
	// Backwards: a group leaving the set swaps in one already delivered to.
	items := rt.openGroups.items
	for i := len(items) - 1; i >= 0; i-- {
		g := items[i]
		rt.deliveries++
		run := rt.groupRuns[g]
		if run.EndElement(ev, idx) {
			if run.LiveEntries() == 0 {
				rt.openGroups.set(g, false)
			}
			rt.addVisits(g)
		}
	}
}

// addVisits lists the members group g's last event concerns for delivery.
//
//vitex:hotpath
func (rt *router) addVisits(g int32) {
	rt.due = rt.groupRuns[g].Due(rt.due[:0])
	for _, b := range rt.due {
		for _, m := range rt.groups[g].Members(b) {
			rt.visits = append(rt.visits, visit{slot: m, group: g, bucket: b})
		}
	}
}

// deliverAll delivers the event to the machines in slots (ascending) and
// visits the grouped machines the groups listed, merged in slot order: the
// order a delivery to every member in turn would have made. A failure is
// recorded with the slot it struck, so finish can tell the group members
// delivered before it from those after.
//
//vitex:hotpath
func (rt *router) deliverAll(slots []int32, ev *sax.Event, idx int64) error {
	if len(rt.visits) == 0 {
		for _, i := range slots {
			if err := rt.deliver(i, ev, idx); err != nil {
				rt.failAt, rt.failSlot = idx, i
				return err
			}
		}
		return nil
	}
	return rt.deliverMerged(slots, ev, idx)
}

// deliverMerged is deliverAll's merge of deliveries and visits.
//
//vitex:hotpath
func (rt *router) deliverMerged(slots []int32, ev *sax.Event, idx int64) error {
	vs := rt.visits
	rt.visits = rt.visits[:0] // spent by this event, whatever happens
	if len(vs) > 1 {
		slices.SortFunc(vs, cmpVisit)
	}
	for len(slots) > 0 || len(vs) > 0 {
		var at int32
		var err error
		if len(vs) == 0 || len(slots) > 0 && slots[0] < vs[0].slot {
			at, slots = slots[0], slots[1:]
			err = rt.deliver(at, ev, idx)
		} else {
			at = vs[0].slot
			err = rt.visit(&vs[0], idx)
			vs = vs[1:]
		}
		if err != nil {
			rt.failAt, rt.failSlot = idx, at
			return err
		}
	}
	return nil
}

// visit hands a grouped machine what its group's last event gave it.
//
//vitex:hotpath
func (rt *router) visit(v *visit, idx int64) error {
	rt.clock = idx
	d := rt.ep.liveIdx[v.slot]
	ordered := rt.opts.Ordered && (rt.unordered == nil || !rt.unordered[d])
	return rt.groupRuns[v.group].Visit(int(d), v.bucket, ordered)
}

// finishGroups reports the statistics of every member of the groups the
// document woke, as finish does a woken machine's, and detaches the runs. A
// member a failed stream had not yet reached when it stopped reports what it
// had counted before that event, and nothing at all when that event was the
// one that woke it.
func (rt *router) finishGroups(scan twigm.Stats, visit func(int, twigm.Stats)) {
	for _, w := range rt.wokenGroups {
		run := rt.groupRuns[w.group]
		if visit != nil {
			vg := rt.groups[w.group]
			failed := rt.failAt >= 0 && rt.failAt == run.At()
			for b := range int32(vg.Buckets()) {
				now := run.Stats(b, false)
				for _, m := range vg.Members(b) {
					st := now
					if rt.failAt == w.at && m > rt.failSlot {
						continue
					}
					if failed && m > rt.failSlot {
						st = run.Stats(b, true)
					}
					st.Events, st.Elements, st.MaxDepth = scan.Events, scan.Elements, scan.MaxDepth
					visit(int(rt.ep.liveIdx[m]), st)
				}
			}
		}
		run.Detach()
	}
}
