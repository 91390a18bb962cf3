package main

import (
	"math"

	"qtrade/internal/value"
)

// fingerprint summarizes an answer without retaining its rows: the row
// count, two order-independent sums of per-row hashes (the multiset) and an
// order-dependent chain (the sequence, compared only under ORDER BY).
// Hashing is allocation-free so it can run inside the client loop between
// cursor pulls, with the latency clock paused.
type fingerprint struct {
	rows    int64
	sum     uint64
	sumSq   uint64
	ordered uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func mix(h, x uint64) uint64 {
	h ^= x
	h *= fnvPrime
	h ^= h >> 29
	return h
}

// hashValue hashes one value so that values value.Identical treats as
// equal hash equally: integral floats hash like ints, as value.Hash does.
func hashValue(h uint64, v value.Value) uint64 {
	switch v.K {
	case value.Null:
		return mix(h, 0x9e3779b97f4a7c15)
	case value.Int:
		return mix(mix(h, 1), uint64(v.I))
	case value.Float:
		if v.F == math.Trunc(v.F) && v.F >= math.MinInt64 && v.F <= math.MaxInt64 {
			return mix(mix(h, 1), uint64(int64(v.F)))
		}
		return mix(mix(h, 2), math.Float64bits(v.F))
	case value.Str:
		h = mix(h, 3)
		for i := 0; i < len(v.S); i++ {
			h = (h ^ uint64(v.S[i])) * fnvPrime
		}
		return mix(h, uint64(len(v.S)))
	case value.Bool:
		if v.B {
			return mix(h, 5)
		}
		return mix(h, 4)
	}
	return h
}

func (f *fingerprint) add(r value.Row) {
	h := uint64(fnvOffset)
	for _, v := range r {
		h = hashValue(h, v)
	}
	f.rows++
	f.sum += h
	f.sumSq += h * (h | 1)
	f.ordered = mix(f.ordered, h)
}

func (f *fingerprint) addBatch(rows []value.Row) {
	for _, r := range rows {
		f.add(r)
	}
}

func fingerprintOf(rows []value.Row) fingerprint {
	var f fingerprint
	f.addBatch(rows)
	return f
}

// minus removes g's rows from the multiset f; the sequence hash is lost.
func (f fingerprint) minus(g fingerprint) fingerprint {
	return fingerprint{rows: f.rows - g.rows, sum: f.sum - g.sum, sumSq: f.sumSq - g.sumSq}
}

// matches compares an answer with the oracle's: as a multiset, or also as a
// sequence when the query orders its output.
func (f fingerprint) matches(truth fingerprint, ordered bool) bool {
	if f.rows != truth.rows || f.sum != truth.sum || f.sumSq != truth.sumSq {
		return false
	}
	return !ordered || f.ordered == truth.ordered
}
