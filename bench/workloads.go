package main

import (
	"fmt"
	"math/rand"

	vitex "repro"
	"repro/internal/datagen"
)

const (
	// poolSize documents, generated from seed..seed+poolSize-1, are fed
	// round-robin: enough variety that no single document's layout is
	// what gets measured, few enough that every reference fits in memory.
	poolSize = 8
	// nSegments slices of a run give the min/max printed beside each value.
	nSegments = 5
	// oracleSample bounds how many queries of a set the DOM oracle checks.
	oracleSample = 200
)

// workload is one benchmark workload. The constants are sized so that, on the
// 2-core host the baseline was taken on, a run of BENCHMARK.json's
// run_seconds times at least 1,100 documents (p99 then has more than ten
// samples beyond it); see README.md for the reason behind every shape.
type workload struct {
	name string
	// doc generates pool document i for a seed; scale shrinks it for tests.
	doc func(seed int64, scale float64) []byte
	// queries is the standing set.
	queries func(seed int64, scale float64) []string
	opts    vitex.Options

	// churnEvery > 0 adds and removes one query before every churnEvery-th
	// document of an in-library run.
	churnEvery int

	// Served workloads go through server + net/http + client on loopback.
	served   bool
	durable  bool // server.Open with a WAL under the output directory
	ringSize int
	// rate > 0 makes the run open loop: one PublishAsync every 1/rate
	// seconds whatever the server does.
	rate float64
	// severEvery > 0: the consumer drops its stream after every
	// severEvery-th document, stays away for awayDocs publishes, then
	// resumes from its token.
	severEvery, awayDocs int
}

func scaled(n int, scale float64) int { return max(1, int(float64(n)*scale+0.5)) }

// churnQuery shares the portal subscriptions' trie prefix and wakes on a
// field element but can never match, so adding and removing it exercises
// graft, prune and session resync without changing any document's results.
func churnQuery(i int) string {
	return fmt.Sprintf("//channel//article/head/f%d[. = 'no-such-value-%d']", i%200, i)
}

var workloads = []workload{
	{
		name: "lib_protein_scan",
		// 512 KB, not the issue's 2 MB. At 1 MB and more, each Stream starts
		// on caches the previous document's scan has emptied, and the ~12 us
		// to the first result swung by 30% between identical runs with the
		// shared host's memory traffic; at 512 KB it repeats to 5%, the
		// scanner's share is the same (0.43), and a run times 4,500 documents.
		doc: func(seed int64, scale float64) []byte {
			return []byte(datagen.Protein{TargetBytes: int64(scaled(1<<19, scale)), Seed: seed}.String())
		},
		queries: func(int64, float64) []string {
			return []string{
				datagen.PaperProteinQuery,
				"//ProteinEntry[organism/source='Homo sapiens']/protein/name",
				"//reference[year>1995]/authors/author",
			}
		},
	},
	{
		name: "lib_portal_10k",
		// 20 articles, not 40: the 10,000-query reset alone is ~6 ms/doc,
		// and 12 ms/doc is the most a 15 s run affords.
		doc: func(seed int64, scale float64) []byte {
			return []byte(datagen.Portal{Articles: scaled(20, scale), Seed: seed}.String())
		},
		queries: func(seed int64, scale float64) []string {
			return datagen.OverlapQueries(scaled(10000, scale), 0.9, 0, 0, seed)
		},
		churnEvery: 10,
	},
	{
		name: "lib_book_recursive",
		// Book has no seed of its own: the seed jitters the copy count by
		// up to 5%, which varies the pool and keeps its total size steady
		// from seed to seed. Tables nest 6 deep, not the issue's 4: at 4,
		// values and emit were 19% of a document's time, under the 20% this
		// workload exists to put on them; at 6 they are 28%.
		doc: func(seed int64, scale float64) []byte {
			rng := rand.New(rand.NewSource(seed))
			return []byte(datagen.Book{
				SectionDepth:  12,
				TableDepth:    6,
				Repeat:        scaled(390+rng.Intn(21), scale),
				AuthorEvery:   2,
				PositionEvery: 3,
			}.String())
		},
		queries: func(int64, float64) []string {
			return []string{
				datagen.PaperQuery,
				"//section[author]//table//cell",
				"//section//section//section//table",
				"//section[.//position]//table[cell]",
			}
		},
		opts: vitex.Options{Ordered: true},
	},
	{
		name: "srv_result_heavy",
		doc: func(seed int64, scale float64) []byte {
			return []byte(datagen.Ticker{Trades: scaled(500, scale), Seed: seed}.String())
		},
		queries: func(int64, float64) []string {
			return append([]string{"//trade/price"}, datagen.SparseTickerQueries(0, 99)...)
		},
		served:   true,
		ringSize: 1 << 14,
	},
	{
		name: "srv_durable_resume",
		// 500 trades (50 KB, ~83 results), not the issue's 50: the live
		// path must take well over the ~0.7 ms by which a timer-paced
		// generator runs late, or p50 measures the timer.
		doc: func(seed int64, scale float64) []byte {
			return []byte(datagen.Ticker{Trades: scaled(500, scale), Seed: seed}.String())
		},
		queries: func(int64, float64) []string {
			return datagen.SparseTickerQueries(1, 99)
		},
		served:     true,
		durable:    true,
		ringSize:   1 << 12,
		rate:       openLoopRate,
		severEvery: 50,
		awayDocs:   5,
	},
}

// openLoopRate is srv_durable_resume's offered load in documents per second:
// a quarter of its closed-loop capacity on the seed commit (README.md, "Open
// loop" says why not half).
const openLoopRate = 150
