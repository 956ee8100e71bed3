// Package ncc implements the global-communication primitives the paper
// imports from prior work, as collective operations on the sim runtime:
//
//   - Aggregate (Lemma B.2, from Augustine et al. [2]): compute an
//     aggregate-distributive function (min/max/sum) of per-node values and
//     announce the result to all nodes in O(log n) rounds using only the
//     global network.
//   - BroadcastWords (used by Lemma 2.3): a designated source announces an
//     O(log^2 n)-bit value (e.g. the hash-function seed) to all nodes in
//     O~(1) rounds via binomial doubling on the global network.
//   - Disseminate (Lemma B.1, Theorem 2.1 of [3]): the token dissemination
//     protocol — k tokens, at most ell per node, become known to every node
//     in O~(sqrt(k) + ell) rounds using both communication modes.
//
// All three are collective: every node's program must call them in the same
// round, and they return after a deterministic number of rounds computed
// from parameters every node knows (n, k, ell), so lockstep is preserved.
package ncc

import (
	"sort"

	"repro/internal/flatmap"
	"repro/internal/sim"
)

// Message kinds used by this package (namespaced high to avoid colliding
// with algorithm-level kinds).
const (
	kindAggUp sim.Kind = 0x7e00 + iota
	kindAggDown
	kindBcastWord
	kindBalance
	kindReplicate
	kindPipeline
)

// AggOp selects the aggregate-distributive function (paper Lemma B.2 covers
// any such f; min, max and sum are the ones the algorithms use).
type AggOp int

// Supported aggregate operations.
const (
	AggMax AggOp = iota + 1
	AggMin
	AggSum
)

func (op AggOp) combine(a, b int64) int64 {
	switch op {
	case AggMax:
		if a >= b {
			return a
		}
		return b
	case AggMin:
		if a <= b {
			return a
		}
		return b
	default:
		return a + b
	}
}

// Aggregate computes op over every node's value and returns the result to
// all nodes. It is a collective operation taking exactly 2*ceil(log2 n)
// rounds: a binomial-tree convergecast to node 0 followed by a binomial-tree
// downcast (the NCC aggregation scheme of [2], Lemma B.2).
func Aggregate(env *sim.Env, value int64, op AggOp) int64 {
	n := env.N()
	logN := sim.Log2Ceil(n)
	acc := value

	// Convergecast: in step b, node i with i mod 2^(b+1) == 2^b sends its
	// accumulator to i - 2^b. Receivers fold.
	for b := 0; b < logN; b++ {
		stride := 1 << (b + 1)
		half := 1 << b
		if env.ID()%stride == half {
			env.SendGlobal(env.ID()-half, kindAggUp, acc, 0, 0, 0)
		}
		in := env.Step()
		for _, m := range in.Global {
			if m.Kind == kindAggUp {
				acc = op.combine(acc, m.F0)
			}
		}
	}
	// Downcast: node 0 now holds the result; reverse the tree.
	for b := logN - 1; b >= 0; b-- {
		stride := 1 << (b + 1)
		half := 1 << b
		if env.ID()%stride == 0 && env.ID()+half < n {
			env.SendGlobal(env.ID()+half, kindAggDown, acc, 0, 0, 0)
		}
		in := env.Step()
		for _, m := range in.Global {
			if m.Kind == kindAggDown {
				acc = m.F0
			}
		}
	}
	return acc
}

// BroadcastWords announces the source node's word vector to every node via
// binomial doubling over the global network. All nodes must pass the same
// source and the same maxWords (an upper bound on len(words) known to
// everyone, e.g. the O(log n) seed length of Lemma 2.3); the source's slice
// is padded to maxWords with zeros. The operation takes
// ceil(log2 n) * ceil(ceil(maxWords/3)/cap) rounds.
func BroadcastWords(env *sim.Env, source int, words []int64, maxWords int) []int64 {
	n := env.N()
	logN := sim.Log2Ceil(n)
	budget := env.GlobalCap()

	buf := make([]int64, maxWords)
	have := false
	if env.ID() == source {
		copy(buf, words)
		have = true
	}
	msgs := (maxWords + 2) / 3 // 3 words per message, field 3 is the index
	roundsPerStep := (msgs + budget - 1) / budget
	if roundsPerStep == 0 {
		roundsPerStep = 1
	}

	offset := func(id int) int { return ((id-source)%n + n) % n }

	for b := 0; b < logN; b++ {
		// Nodes with offset < 2^b are informed; each sends to offset+2^b.
		partnerOff := offset(env.ID()) + (1 << b)
		sendIdx := 0
		for r := 0; r < roundsPerStep; r++ {
			if have && offset(env.ID()) < (1<<b) && partnerOff < n {
				dst := (source + partnerOff) % n
				for s := 0; s < budget && sendIdx < msgs; s++ {
					i := sendIdx * 3
					var w0, w1, w2 int64
					w0 = buf[i]
					if i+1 < maxWords {
						w1 = buf[i+1]
					}
					if i+2 < maxWords {
						w2 = buf[i+2]
					}
					env.SendGlobal(dst, kindBcastWord, w0, w1, w2, int64(sendIdx))
					sendIdx++
				}
			}
			in := env.Step()
			for _, m := range in.Global {
				if m.Kind != kindBcastWord {
					continue
				}
				i := int(m.F3) * 3
				buf[i] = m.F0
				if i+1 < maxWords {
					buf[i+1] = m.F1
				}
				if i+2 < maxWords {
					buf[i+2] = m.F2
				}
				have = true
			}
		}
	}
	return buf
}

// Token is one O(log n)-bit token of the dissemination problem: three
// log n-bit words, enough for every use in the paper (edge (u,v,w) triples,
// representative labels (d, id(v), id(r)), distance labels).
type Token struct {
	A, B, C int64
}

// DisseminateParams tunes the w.h.p. constants of the protocol. Zero values
// select defaults that hold at the scales the test suite exercises.
type DisseminateParams struct {
	// ReplicationFactor scales m = ReplicationFactor * n * logN / r, the
	// number of random copies placed per token. Default 2.
	ReplicationFactor int
	// FloodSlack scales the local flood radius r beyond ceil(sqrt(k)).
	// Default 1 (radius max(sqrt(k), 2 logN)).
	FloodSlack int
}

func (p DisseminateParams) withDefaults() DisseminateParams {
	if p.ReplicationFactor <= 0 {
		p.ReplicationFactor = 2
	}
	if p.FloodSlack <= 0 {
		p.FloodSlack = 1
	}
	return p
}

// Disseminate implements the token dissemination protocol of [3]
// (Lemma B.1): all k tokens become known to every node. mine holds this
// node's initial tokens; k and ell are globally known upper bounds on the
// total token count and the per-node count. The protocol is collective and
// takes a deterministic O~(sqrt(k) + ell) number of rounds:
//
//  1. Balancing: every node sends each of its tokens to a uniformly random
//     node, paced at the cap — ceil(ell/cap) rounds. Afterwards each node
//     holds O(k/n + log n) tokens w.h.p.
//  2. Replication: each holder sends each held token to m ~ n*log(n)/r
//     uniformly random nodes, paced at the cap. Since every radius-r ball
//     of a connected graph contains more than r nodes, every ball then
//     holds a copy of every token w.h.p.
//  3. Local flooding: r rounds of delta-flooding over G deliver every token
//     to every node.
//
// With r = Theta(sqrt(k)) the total is O~(ell + k/r + r) = O~(sqrt(k)+ell).
func Disseminate(env *sim.Env, mine []Token, k, ell int, params DisseminateParams) []Token {
	p := params.withDefaults()
	n := env.N()
	logN := sim.Log2Ceil(n)
	budget := env.GlobalCap()
	var known flatmap.TripleSet
	for _, t := range mine {
		known.Add(flatmap.Triple(t))
	}
	if k <= 0 {
		return tokensOf(&known)
	}

	// Deterministic schedule, identical at every node.
	r := sim.SqrtCeil(k)
	if min := 2 * logN * p.FloodSlack; r < min {
		r = min
	}
	m := (p.ReplicationFactor*n*logN + r - 1) / r
	if m > n {
		m = n
	}
	heldBound := 2*((k+n-1)/n) + 8*logN
	balanceRounds := (ell + budget - 1) / budget
	replicateRounds := (heldBound*m + budget - 1) / budget

	// Phase 1: balancing.
	held := make([]Token, 0, heldBound)
	idx := 0
	for round := 0; round < balanceRounds; round++ {
		for s := 0; s < budget && idx < len(mine); s++ {
			t := mine[idx]
			idx++
			env.SendGlobal(env.Rand().Intn(n), kindBalance, t.A, t.B, t.C, 0)
		}
		in := env.Step()
		for _, gm := range in.Global {
			if gm.Kind == kindBalance {
				held = append(held, Token{gm.F0, gm.F1, gm.F2})
			}
		}
	}

	// Phase 2: replication. Each held token goes to m random nodes. Jobs
	// beyond the schedule (a node holding more than heldBound, which is a
	// low-probability event) are truncated; round-robin over tokens keeps
	// the truncation proportional.
	type job struct {
		t    Token
		left int
	}
	jobs := make([]job, len(held))
	for i, t := range held {
		jobs[i] = job{t: t, left: m}
	}
	ji := 0
	for round := 0; round < replicateRounds; round++ {
		for s := 0; s < budget; s++ {
			// Advance to the next job with sends left.
			scanned := 0
			for len(jobs) > 0 && scanned < len(jobs) {
				if jobs[ji%len(jobs)].left > 0 {
					break
				}
				ji++
				scanned++
			}
			if len(jobs) == 0 || scanned == len(jobs) {
				break
			}
			j := &jobs[ji%len(jobs)]
			j.left--
			ji++
			env.SendGlobal(env.Rand().Intn(n), kindReplicate, j.t.A, j.t.B, j.t.C, 0)
		}
		in := env.Step()
		for _, gm := range in.Global {
			if gm.Kind == kindReplicate {
				known.Add(flatmap.Triple{A: gm.F0, B: gm.F1, C: gm.F2})
			}
		}
	}
	// Tokens this node held also count as known.
	for _, j := range jobs {
		known.Add(flatmap.Triple(j.t))
	}

	// Phase 3: delta flooding over the local network for r rounds. The two
	// delta buffers rotate (see skeleton.LimitedExplore for the ownership
	// argument), so a staged batch is rewritten only after every reader has
	// taken the next barrier and steady-state flood rounds are
	// allocation-free.
	var bufs [2]tokenBatch
	bufs[0] = tokensOf(&known)
	for round := 0; round < r; round++ {
		if len(bufs[round&1]) > 0 {
			env.BroadcastLocal(&bufs[round&1])
		}
		in := env.Step()
		next := bufs[(round+1)&1][:0]
		for _, lm := range in.Local {
			ts, ok := lm.Payload.(*tokenBatch)
			if !ok {
				continue
			}
			for _, t := range *ts {
				if !known.Has(flatmap.Triple(t)) {
					known.Add(flatmap.Triple(t))
					next = append(next, t)
				}
			}
		}
		bufs[(round+1)&1] = next
	}
	return tokensOf(&known)
}

// tokensOf returns the sorted token set for deterministic output.
func tokensOf(set *flatmap.TripleSet) []Token {
	out := make([]Token, 0, set.Len())
	for _, tr := range set.AppendAll(nil) {
		out = append(out, Token(tr))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		if out[i].B != out[j].B {
			return out[i].B < out[j].B
		}
		return out[i].C < out[j].C
	})
	return out
}
