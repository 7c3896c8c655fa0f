#!/usr/bin/env python3
"""Reads `go tool trace -d=parsed TRACE` on stdin and reports the waits of
the results handler: from the moment a goroutine parked in subRing.next is
made runnable to the moment it runs. For waits over 100 us it counts those
during which the other processor ran no goroutine at the unblock, and those
the handler finally ran on the waker's processor.

    go tool trace -d=parsed hop.trace | python3 waits.py
"""
import re
import sys

ev = re.compile(r'^M=(-?\d+) P=(-?\d+) G=(-?\d+) StateTransition Time=(\d+) Resource=(Goroutine|Proc)\((\d+)\) Reason="([^"]*)" \w+=\d+ (\w+)->(\w+)')
parked = set()   # goroutines waiting in subRing.next
unblocked = {}   # goroutine -> (time, waker's P, whether another P ran a goroutine then)
running = {}     # P -> goroutine running on it
waits = []       # (wait ns, waker's P, other P busy at the unblock, P it ran on)
pending = None   # the goroutine whose Running->Waiting stack is being read

for line in sys.stdin:
    if not line.startswith('M='):
        if pending is not None and 'subRing).next' in line:
            parked.add(pending)
        continue
    pending = None
    m = ev.match(line)
    if not m:
        continue
    p, t, kind, rid, frm, to = int(m[2]), int(m[4]), m[5], int(m[6]), m[8], m[9]
    if kind == 'Proc':
        if to != 'Running':
            running.pop(rid, None)
        continue
    g = rid
    if frm == 'Running':
        for q in [q for q, h in running.items() if h == g]:
            del running[q]
        if to == 'Waiting':
            pending = g
    elif frm == 'Waiting' and to == 'Runnable' and g in parked:
        parked.discard(g)
        unblocked[g] = (t, p, any(q != p for q in running))
    if to == 'Running':
        running[p] = g
        if g in unblocked:
            t1, waker, busy = unblocked.pop(g)
            waits.append((t - t1, waker, busy, p))

long = [w for w in waits if w[0] > 100_000]
ws = sorted(w[0] for w in waits)
q = lambda f: ws[int(f * (len(ws) - 1))] / 1e3
print(f'handler waits: {len(ws)}, p50 {q(0.5):.0f} us, p90 {q(0.9):.0f} us')
print(f'waits over 100 us: {len(long)}')
print(f'  other processor running no goroutine at the unblock: {sum(1 for w in long if not w[2])}')
print(f"  handler ran on the waker's processor: {sum(1 for w in long if w[3] == w[1])}")
