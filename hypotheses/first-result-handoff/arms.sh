#!/usr/bin/env bash
# Instruments a scratch checkout of this repository for the probe in
# probe_test.go.txt. Never apply it to a tree you commit.
#
#   bash arms.sh DIR hops          # hop timestamps (both trees)
#   bash arms.sh DIR perconsumer   # the change, yielding once per woken consumer
set -euo pipefail
s="$1/internal/server"
case "$2" in
hops)
	# Each hook keeps the first time of a document: the probe zeroes them
	# before every publish.
	cat > "$s/zz_hops.go" <<'GO'
package server

import (
	"sync/atomic"
	"time"
)

// Hops holds the first push, the handler's first write and its first flush
// of the document in flight, in Unix nanoseconds.
var Hops [3]atomic.Int64

func hop(i int) {
	if Hops[i].Load() == 0 {
		Hops[i].CompareAndSwap(0, time.Now().UnixNano())
	}
}
GO
	perl -0pi -e 's/(\n(\t\t)delivered, (?:woke, )?perr := sub\.ring\.push\(j\.ctx, d\))/\n$2hop(0)$1/' "$s/channel.go"
	perl -0pi -e 's/(\n\t\t_, err := w\.Write\(line\)\n)/$1\t\thop(1)\n/' "$s/http.go"
	perl -0pi -e 's/\n\t\tif flushErr := rc\.Flush\(\); flushErr != nil \{\n\t\t\treturn\n\t\t\}\n\t\}\n\}\n/\n\t\tflushErr := rc.Flush()\n\t\thop(2)\n\t\tif flushErr != nil {\n\t\t\treturn\n\t\t}\n\t}\n}\n/' "$s/http.go"
	grep -q 'hop(0)' "$s/channel.go" && grep -q 'hop(1)' "$s/http.go" && grep -q 'hop(2)' "$s/http.go"
	;;
perconsumer)
	perl -pi -e 's/handedOff := false/handedOff := make(map[*subRing]bool)/; s/if woke && !handedOff \{/if woke && !handedOff[sub.ring] {/; s/handedOff = true/handedOff[sub.ring] = true/' "$s/channel.go"
	grep -q 'handedOff\[sub.ring\] = true' "$s/channel.go"
	;;
*)
	echo "unknown arm $2" >&2
	exit 2
	;;
esac
