package main

import (
	"bytes"
	"fmt"

	vitex "repro"
	"repro/internal/dom"
	"repro/internal/xmlscan"
	"repro/internal/xpath"
)

// FNV-1a constants; the checksum folds eight bytes per multiply, which keeps
// the harness's own sink far below the cost of producing a result.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, v uint64) uint64 { return (h ^ v) * fnvPrime }

// resultHash is the FNV checksum of one result: (query index, Seq,
// NodeOffset, Value). A document's checksum is the sum of its results'
// hashes, so it does not depend on emission order across queries.
func resultHash(query int, seq, offset int64, value string) uint64 {
	h := mix(mix(mix(fnvOffset, uint64(query)), uint64(seq)), uint64(offset))
	i := 0
	for ; i+8 <= len(value); i += 8 {
		h = mix(h, uint64(value[i])|uint64(value[i+1])<<8|uint64(value[i+2])<<16|uint64(value[i+3])<<24|
			uint64(value[i+4])<<32|uint64(value[i+5])<<40|uint64(value[i+6])<<48|uint64(value[i+7])<<56)
	}
	for ; i < len(value); i++ {
		h = mix(h, uint64(value[i]))
	}
	return mix(h, uint64(len(value)))
}

// reference is what the consumer must receive for one pool document: result
// count and checksum per query of the set.
type reference struct {
	counts []int
	sums   []uint64
}

// of returns the count and checksum a consumer of query q must see; q < 0
// means the whole set.
func (r reference) of(q int) (count int, sum uint64) {
	if q >= 0 {
		return r.counts[q], r.sums[q]
	}
	for i := range r.counts {
		count += r.counts[i]
		sum += r.sums[i]
	}
	return count, sum
}

// oracleChunk is how many queries one reference engine holds. With prefix
// sharing off every '//' query is live on every event, so a document costs
// time quadratic in the set: 10,000 queries in one unshared set take 6 s per
// portal document, in chunks of 64 they take 0.08 s.
const oracleChunk = 64

// oracle computes references with an engine configuration the timed runs
// never use (prefix sharing off, serial, document order, the set cut into
// independent chunks) and cross-checks it against the DOM evaluator on a
// sample of the set.
type oracle struct {
	chunks []*vitex.QuerySet      // chunk c holds queries c*oracleChunk...
	parsed map[int][]*xpath.Query // sampled query index -> branches
}

func newOracle(queries []string) (*oracle, error) {
	o := &oracle{parsed: make(map[int][]*xpath.Query)}
	for lo := 0; lo < len(queries); lo += oracleChunk {
		set, err := vitex.NewQuerySetConfigured(vitex.SetConfig{DisablePrefixSharing: true}, queries[lo:min(lo+oracleChunk, len(queries))]...)
		if err != nil {
			return nil, fmt.Errorf("oracle set: %w", err)
		}
		o.chunks = append(o.chunks, set)
	}
	stride := max(1, (len(queries)+oracleSample-1)/oracleSample)
	for i := 0; i < len(queries); i += stride {
		var err error
		if o.parsed[i], err = xpath.ParseUnion(queries[i]); err != nil {
			return nil, fmt.Errorf("oracle parse %q: %w", queries[i], err)
		}
	}
	return o, nil
}

// reference evaluates the whole set over data.
func (o *oracle) reference(data []byte) (reference, error) {
	values := make(map[int][]string, len(o.parsed))
	var ref reference
	var err error
	for c, set := range o.chunks {
		base := c * oracleChunk
		ref.counts = append(ref.counts, make([]int, set.Len())...)
		ref.sums = append(ref.sums, make([]uint64, set.Len())...)
		_, err = set.Stream(bytes.NewReader(data), vitex.Options{Ordered: true}, func(r vitex.SetResult) error {
			q := base + r.QueryIndex
			ref.counts[q]++
			ref.sums[q] += resultHash(q, r.Seq, r.NodeOffset, r.Value)
			if _, sampled := o.parsed[q]; sampled {
				values[q] = append(values[q], r.Value)
			}
			return nil
		})
		if err != nil {
			break
		}
	}
	if err != nil {
		return ref, fmt.Errorf("oracle stream: %w", err)
	}
	doc, err := dom.Build(xmlscan.NewScanner(bytes.NewReader(data)))
	if err != nil {
		return ref, fmt.Errorf("oracle dom: %w", err)
	}
	for qi, branches := range o.parsed {
		nodes := dom.EvalUnion(doc, branches)
		if len(nodes) != len(values[qi]) {
			return ref, fmt.Errorf("oracle: query %d: engine %d results, dom %d", qi, len(values[qi]), len(nodes))
		}
		for k, n := range nodes {
			if n.Serialize() != values[qi][k] {
				return ref, fmt.Errorf("oracle: query %d result %d: engine %q, dom %q", qi, k, values[qi][k], n.Serialize())
			}
		}
	}
	return ref, nil
}
