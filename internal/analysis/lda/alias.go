// The alias-table Metropolis–Hastings sampler (LightLDA-style: Yuan et
// al., WWW 2015). Instead of computing the collapsed Gibbs conditional
//
//	p(z=k | ·) ∝ (ndt[d][k]+α)(nwt[w][k]+β) / (nt[k]+βV)
//
// per token (O(K) in the dense oracle), each token draws a proposal
// from a cheap distribution covering one factor of the conditional and
// corrects it with a Metropolis–Hastings acceptance step:
//
//   - doc proposal  q_d(k) ∝ ndt[d][k]+α — drawn in O(1) by picking a
//     uniform token of the document and taking its current topic (the
//     ndt[d] part), mixed with a uniform topic (the α part);
//   - word proposal q_w(k) ∝ nwt[w][k]+β — drawn in O(1) from a per-word
//     alias table (Vose 1991) built over the word's topic counts.
//
// Sweeps alternate which proposal they use (word on even iterations, doc
// on odd), cycling the MH kernel across the corpus — each proposal mixes
// the factor it covers, and the acceptance ratio keeps every step exact
// against the full conditional. One proposal per token per sweep instead
// of two halves the per-token cost; the chain needs both kinds of sweep
// to mix, and the convergence gates (perplexity and coherence parity
// against the dense oracle) hold at the iteration counts the repo runs.
//
// Per-token cost is O(1) in K: one RNG draw for the proposal, and — only
// when the proposal differs from the current topic — two conditional
// masses (four array loads, a handful of multiplications, no divisions:
// the acceptance cross-multiplies and the only reciprocals, 1/(nt[k]+βV),
// are cached per sweep). The acceptance ratio for proposal t against
// current topic s, with the token excluded from all counts (⁻ⁱ), is
//
//	π = p⁻ⁱ(t)·q(s) / (p⁻ⁱ(s)·q(t))
//
// accepted when u·p⁻ⁱ(s)·q(t) < p⁻ⁱ(t)·q(s) for uniform u — drawn only
// when the ratio is below one (an uphill move accepts surely, no draw).
// q is the proposal actually drawn from: the doc proposal includes the
// current token in its counts, because the token trick samples the live
// assignment array; the word proposal is the stale table distribution.
//
// The alias tables are deliberately stale: a rebuild costs O(K) per word,
// so tables rebuild only every aliasRebuildSweeps iterations, and only
// for words whose counts actually moved (a per-word stale counter fed by
// the merge). MH stays exact under a stale proposal as long as the
// acceptance ratio uses the same stale weights the table was built from —
// wProp keeps them. Word-topic counts live in dense int32 rows: the MH
// acceptance needs random O(1) count lookups, not nonzero enumeration,
// and at the paper's K a dense row still fits one cache line (a packed
// sparse-row scan measured ~40% slower here; DESIGN.md §15 records the
// experiment).
//
// Parallel determinism: documents are split into fixed-size chunks that
// do not depend on the worker count. Each chunk owns a persistent RNG
// stream (seeded from Config.Seed and the chunk index) and its documents'
// ndt rows; global nwt/nt stay frozen during a sweep and every chunk
// records its (w, from, to) transitions, which merge serially at the
// iteration barrier in fixed chunk order. Integer count updates commute,
// every float input is either frozen-global or chunk-local, and each
// chunk's RNG consumption depends only on its own tokens — so the fitted
// model is byte-identical at any Config.Workers. Alias tables rebuild
// only at the barrier, on a schedule depending only on the iteration
// index and merged counts. Unlike the dense oracle's exact-conditional
// draws, the alias chain is a *different* Markov chain over the same
// stationary distribution: tests gate it on converged perplexity and
// coherence parity against the dense oracle plus an
// exact-acceptance-ratio unit oracle, not on float identity.
package lda

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"msgscope/internal/analysis/textproc"
)

// chunkDocs is the fixed document-chunk size. It is part of the
// determinism contract: changing it changes which RNG stream samples which
// document, i.e. the fitted model.
const chunkDocs = 256

// chunkStream derives a chunk's RNG stream offset. Any injective map
// works; the golden-ratio multiply spreads consecutive indices across the
// seed space.
func chunkStream(ci int) uint64 {
	return 0x51DA<<32 ^ uint64(ci)*0x9E3779B97F4A7C15
}

// tdelta is one recorded topic transition of word w, merged into the
// global counts at the iteration barrier.
type tdelta struct {
	w        int32
	from, to uint8
}

// aliasMaxK bounds the alias path's topic count: merge deltas pack topics
// into a uint8 (tdelta), so 256 topics is the ceiling. Larger K falls
// back to the dense reference sampler.
const aliasMaxK = 256

// aliasRebuildSweeps is how many sweeps a word's alias table may serve
// before the stale counter is honored and the table rebuilt. Rebuilding
// every sweep would cost O(V·K) per sweep — comparable to the sweep
// itself on a tweet-shaped corpus, where V·K is within a small factor of
// the token count; every 4th sweep amortizes the build to noise while
// the acceptance step keeps the chain exact under the staleness. Part of
// the determinism contract: the rebuild schedule depends only on the
// iteration index and the merged counts, never on worker scheduling.
const aliasRebuildSweeps = 4

// aliasRng is the alias chain's per-chunk generator: a 128-bit
// multiplicative Lehmer generator — state *= M, return the high half.
// Two multiplies and an add per draw, ~4 cycles of latency against
// SplitMix64's ~12: every token's proposal sits on the serial RNG
// dependency chain, so draw latency is sweep throughput.
type aliasRng struct{ lo, hi uint64 }

const lehmerMul = 0xda942042e4dd58b5

// rngState is a SplitMix64 stream (Steele, Lea & Flood 2014): one uint64
// of state, six cheap fully-inlined ops per draw. It only seeds the
// Lehmer state of each chunk's aliasRng.
type rngState uint64

func (s *rngState) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ z>>30) * 0xBF58476D1CE4B09B
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// newAliasRng expands a 64-bit stream seed into Lehmer state through
// SplitMix64, forcing the low word odd (the generator is multiplicative
// mod 2^128; odd state keeps it on the maximal orbit).
func newAliasRng(seed uint64) aliasRng {
	s := rngState(seed)
	lo := s.next() | 1
	return aliasRng{lo: lo, hi: s.next()}
}

func (r *aliasRng) next() uint64 {
	hi1, lo1 := bits.Mul64(r.lo, lehmerMul)
	r.hi = r.hi*lehmerMul + hi1
	r.lo = lo1
	return r.hi
}

func (r *aliasRng) float64() float64 { return float64(r.next()>>11) * 0x1p-53 }

func (r *aliasRng) intN(n int) int {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int(hi)
}

// aliasChunk is one fixed chunkDocs-document span with its own RNG stream
// and transition log.
type aliasChunk struct {
	lo, hi int
	rng    aliasRng
	deltas []tdelta
}

// aliasSampler is the sampler state layered over a Model's count arrays.
type aliasSampler struct {
	m    *Model
	K, V int

	alpha, beta   float64
	alphaK, betaV float64
	invAlpha      float64

	ndt   []int32 // chunk-owned doc-topic counts, [d*K+k]
	z32   []int32 // topic assignments, flattened doc-major
	tok32 []int32 // corpus word ids, flattened doc-major
	nwt32 []int32 // dense word-topic rows, [w*K+k]; frozen during a sweep

	invDenom   []float64 // 1/(nt[k]+βV), refreshed per iteration
	invDenomM1 []float64 // 1/(nt[k]-1+βV); only valid where nt[k] ≥ 1

	// The alias tables, one packed cell per [w*K+topic] (Vose
	// construction): the low 24 bits are the cell's acceptance threshold
	// in fixed point (2^24 = keep surely), the top 8 the alias topic —
	// aliasMaxK is 256 exactly so the alias index fits, and the whole
	// cell is 4 bytes, halving the table footprint a random draw has to
	// keep cache-resident. The keep/alias test is a single integer
	// compare against the draw's spare low bits (no int→float conversion
	// on the hot path). A draw picks cell j uniformly, keeps j when the
	// 24-bit fraction is below the threshold and takes the alias
	// otherwise. wProp holds the stale weights (count+β at build time)
	// the table encodes — the acceptance ratio must use the distribution
	// actually proposed from, not the fresh counts.
	aliasCell []uint32
	wProp     []float32
	stale     []int32 // per-word count moves since the last table build

	// Vose construction scratch, reused across builds.
	voseP     []float64
	voseSmall []int32
	voseLarge []int32

	chunks []aliasChunk
}

func newAliasSampler(m *Model) *aliasSampler {
	K := m.cfg.Topics
	V := m.vocab.Size()
	st := &aliasSampler{
		m:          m,
		K:          K,
		V:          V,
		alpha:      m.cfg.Alpha,
		beta:       m.cfg.Beta,
		alphaK:     m.cfg.Alpha * float64(K),
		betaV:      m.cfg.Beta * float64(V),
		invAlpha:   1 / m.cfg.Alpha,
		ndt:        make([]int32, len(m.docs)*K),
		z32:        make([]int32, len(m.z)),
		tok32:      make([]int32, len(m.z)),
		nwt32:      make([]int32, V*K),
		invDenom:   make([]float64, K),
		invDenomM1: make([]float64, K),
		aliasCell:  make([]uint32, V*K),
		wProp:      make([]float32, V*K),
		stale:      make([]int32, V),
		voseP:      make([]float64, K),
		voseSmall:  make([]int32, K),
		voseLarge:  make([]int32, K),
	}
	for d, doc := range m.docs {
		off := m.docOff[d]
		for i, w := range doc {
			st.tok32[off+i] = int32(w)
		}
	}
	nChunks := (len(m.docs) + chunkDocs - 1) / chunkDocs
	st.chunks = make([]aliasChunk, nChunks)
	for ci := range st.chunks {
		lo := ci * chunkDocs
		hi := lo + chunkDocs
		if hi > len(m.docs) {
			hi = len(m.docs)
		}
		toks := m.docOff[hi-1] + m.docLen[hi-1] - m.docOff[lo]
		st.chunks[ci] = aliasChunk{
			lo: lo, hi: hi,
			rng:    newAliasRng(m.cfg.Seed*0xD1342543DE82EF95 ^ chunkStream(ci)),
			deltas: make([]tdelta, 0, toks),
		}
	}
	return st
}

// initAssignments draws the initial topic of every token from its chunk's
// own stream — worker-count independent, like the sweeps.
func (st *aliasSampler) initAssignments() {
	K, m := st.K, st.m
	for ci := range st.chunks {
		ck := &st.chunks[ci]
		for d := ck.lo; d < ck.hi; d++ {
			zd := st.z32[m.docOff[d]:]
			for i, w := range m.docs[d] {
				k := ck.rng.intN(K)
				zd[i] = int32(k)
				st.nwt32[w*K+k]++
				st.ndt[d*K+k]++
				m.nt[k]++
			}
		}
	}
}

// refresh recomputes the cached inverse denominators from the per-topic
// totals. Called once per iteration, between the merge and the next
// sweep; O(K). (A per-sweep O(V·K) precompute of the full word factors
// (nwt+β)·inv was tried here and lost: on a tweet-shaped corpus V·K is
// within a small factor of the per-sweep token count, so the refresh
// cost rivals the sweep and the doubled table footprint evicts the alias
// cells; DESIGN.md §15 records the experiment.)
func (st *aliasSampler) refresh() {
	for k := 0; k < st.K; k++ {
		den := float64(st.m.nt[k]) + st.betaV
		st.invDenom[k] = 1 / den
		st.invDenomM1[k] = 1 / (den - 1)
	}
}

// wtCount returns the frozen word-topic count.
func (st *aliasSampler) wtCount(w, k int) int32 { return st.nwt32[w*st.K+k] }

// rebuildTables rebuilds the per-word alias tables — all words when all
// is set (the initial build), otherwise only words whose stale counter
// shows merged count moves since their last build. Runs serially at the
// iteration barrier, so the tables every chunk samples from next sweep
// are identical at any worker count.
func (st *aliasSampler) rebuildTables(all bool) {
	for w := 0; w < st.V; w++ {
		if !all && st.stale[w] == 0 {
			continue
		}
		st.stale[w] = 0
		st.buildWord(w)
	}
}

// buildWord gathers word w's smoothed topic weights and runs the Vose
// construction into the word's alias cells, recording the weights in
// wProp for the acceptance ratio.
func (st *aliasSampler) buildWord(w int) {
	K := st.K
	p := st.voseP
	off := w * K
	wp := st.wProp[off : off+K]
	for k := 0; k < K; k++ {
		p[k] = float64(st.nwt32[off+k]) + st.beta
		wp[k] = float32(p[k])
	}
	voseBuild(p, st.aliasCell[off:off+K], st.voseSmall, st.voseLarge)
}

// aliasOne is the 24-bit fixed-point "keep surely" threshold. It is
// representable in a cell (the threshold field is the low 24 bits, and a
// cell whose threshold saturates keeps itself, so its alias field is its
// own index and the 25th bit can safely carry into it — but aliasThresh
// clamps so it never does for a non-self alias).
const aliasOne = 1 << 24

// aliasThresh rounds a cell probability in [0,1) to its 24-bit
// fixed-point acceptance threshold, clamped below the saturating value so
// the alias field stays intact.
func aliasThresh(p float64) uint32 {
	t := uint32(p*aliasOne + 0.5)
	if t >= aliasOne {
		t = aliasOne - 1
	}
	return t
}

// voseBuild runs Vose's O(K) alias construction over the (unnormalized,
// strictly positive) weights in p, filling each 32-bit cell with its
// packed (8-bit alias index, 24-bit fixed-point threshold) pair. p is
// consumed as scratch. small and large are caller-provided worklists of
// len(p). The implied per-cell distribution matches p/Σp to fixed-point
// rounding — FuzzAliasTable pins the bound.
func voseBuild(p []float64, cells []uint32, small, large []int32) {
	n := len(p)
	total := 0.0
	for _, v := range p {
		total += v
	}
	scale := float64(n) / total
	nS, nL := 0, 0
	for k, v := range p {
		p[k] = v * scale
		if p[k] < 1 {
			small[nS] = int32(k)
			nS++
		} else {
			large[nL] = int32(k)
			nL++
		}
	}
	for nS > 0 && nL > 0 {
		nS--
		nL--
		s, l := small[nS], large[nL]
		cells[s] = uint32(l)<<24 | aliasThresh(p[s])
		p[l] -= 1 - p[s]
		if p[l] < 1 {
			small[nS] = l
			nS++
		} else {
			large[nL] = l
			nL++
		}
	}
	// Leftovers are 1 up to rounding: they keep their own cell — the
	// saturated threshold's 2⁻²⁴ leak lands on the self-alias, so the
	// keep is still sure.
	for nL > 0 {
		nL--
		cells[large[nL]] = uint32(large[nL])<<24 | (aliasOne - 1)
	}
	for nS > 0 {
		nS--
		cells[small[nS]] = uint32(small[nS])<<24 | (aliasOne - 1)
	}
}

// drawAlias draws a topic from word w's alias table with one RNG draw:
// the high bits of a fixed-point multiply pick the cell, and the top 24
// of the remainder of that same multiply are the uniform fraction tested
// against the cell's threshold (uniform conditional on the cell by
// construction) — one integer compare, no float conversion.
func (st *aliasSampler) drawAlias(rng *aliasRng, w int) int {
	hi, lo := bits.Mul64(rng.next(), uint64(st.K))
	cell := st.aliasCell[w*st.K+int(hi)]
	if uint32(lo>>40) < cell&(aliasOne-1) {
		return int(hi)
	}
	return int(cell >> 24)
}

// condMass is p⁻ⁱ(k): the collapsed conditional's unnormalized mass for
// topic k with the current token (assigned s in the frozen counts)
// excluded. The factored reference the fused sweep must match float for
// float, and the surface the acceptance-ratio oracle tests drive.
func (st *aliasSampler) condMass(ndtRow []int32, w, s, k int) float64 {
	cnt := float64(st.wtCount(w, k))
	inv := st.invDenom[k]
	if k == s {
		cnt--
		inv = st.invDenomM1[k]
	}
	return (float64(ndtRow[k]) + st.alpha) * (cnt + st.beta) * inv
}

// sampleToken runs one MH step for a detached token (ndtRow excludes it;
// the frozen global counts still include its assignment s): a word
// proposal when wordStep, a doc proposal otherwise, accepted by the exact
// ratio. Factored reference of the fused sweep.
//
// Each token consumes exactly one RNG draw: the proposal and the
// acceptance uniform come from disjoint bit ranges of the same 64-bit
// output (word step: top 24 spare bits of the cell multiply's remainder
// pick keep/alias, the low 40 are the acceptance uniform; doc step: the
// high 32 bits drive the token trick, the low 32 are the acceptance
// uniform). Disjoint bit ranges of one uniform word are independent
// uniforms, and one unconditional draw per token keeps the serial RNG
// recurrence free of control dependence — the chain runs ahead of the
// acceptance branches instead of stalling on them.
func (st *aliasSampler) sampleToken(rng *aliasRng, zd []int32, nd int, ndtRow []int32, w, s int, wordStep bool) int {
	K := st.K
	var lhs, rhs float64
	var uAcc float64
	var t int
	if wordStep {
		hi, lo := bits.Mul64(rng.next(), uint64(K))
		cell := st.aliasCell[w*K+int(hi)]
		t = int(hi)
		if uint32(lo>>40) >= cell&(aliasOne-1) {
			t = int(cell >> 24)
		}
		if t == s {
			return s
		}
		uAcc = float64(lo&(1<<40-1)) * 0x1p-40
		wp := st.wProp[w*K:]
		pS := st.condMass(ndtRow, w, s, s)
		pT := st.condMass(ndtRow, w, s, t)
		lhs, rhs = pT*float64(wp[s]), pS*float64(wp[t])
		if lhs >= rhs || uAcc*rhs < lhs {
			return t
		}
		return s
	}
	// q_d(k) ∝ ndt⁺ⁱ[k]+α, drawn via the token trick over the live
	// assignments (which still include this token at s).
	r := rng.next()
	fnd := float64(nd)
	u := float64(r>>32) * 0x1p-32 * (fnd + st.alphaK)
	if u < fnd {
		t = int(zd[int(u)])
	} else {
		t = int((u - fnd) * st.invAlpha)
		if t >= K {
			t = K - 1
		}
	}
	if t == s {
		return s
	}
	uAcc = float64(uint32(r)) * 0x1p-32
	// The doc factor ndt⁻ⁱ[t]+α appears in both p⁻ⁱ(t) and q_d(t), and
	// cancels out of the ratio — the t entry of the doc-topic row is
	// never read. With A = ndt⁻ⁱ[s]+α:
	//
	//	π = (nwt[t]+β)·inv[t]·(A+1) / (A·(nwt⁻ⁱ[s]+β)·invM1[s])
	A := float64(ndtRow[s]) + st.alpha
	lhs = (float64(st.nwt32[w*K+t]) + st.beta) * st.invDenom[t] * (A + 1)
	rhs = A * (float64(st.nwt32[w*K+s]) - 1 + st.beta) * st.invDenomM1[s]
	if lhs >= rhs || uAcc*rhs < lhs {
		return t
	}
	return s
}

// aliasWordStep picks the proposal kind for a sweep: two word-proposal
// sweeps for every doc-proposal sweep. On tweet-length documents the doc
// proposal is weakly informative — with α = 50/K and nd ≈ 14 tokens,
// αK ≫ nd, so most doc-proposal draws land in the smoothing mass and
// propose a uniform topic. The word proposal carries nearly all the
// mixing, so it gets the extra turn; the cycle still visits both
// proposals, which the cycling-MH correctness argument requires.
func aliasWordStep(iter int) bool { return iter%3 != 2 }

// sweepChunk resamples every token of one chunk against the frozen global
// counts, recording transitions for the barrier merge. The production
// loops are fused: float-for-float they perform exactly the detach →
// sampleToken → attach sequence above (pinned by
// TestAliasFusedMatchesFactored), with hot fields hoisted, the
// detach/attach folded into the accept path, the conditional masses
// computed only when the proposal differs from the current topic (an
// equal proposal is a no-op, and once the chain concentrates most word
// proposals land on the current topic — the early-out runs before any
// word-row load), and the word/doc steps split into separate loops so
// neither pays the other's branch or register pressure.
func (st *aliasSampler) sweepChunk(ck *aliasChunk, wordStep bool) {
	if wordStep {
		st.sweepChunkWord(ck)
	} else {
		st.sweepChunkDoc(ck)
	}
}

// sweepChunkWord is the word-proposal (even-iteration) sweep: one alias
// draw per token, acceptance against the stale table weights.
func (st *aliasSampler) sweepChunkWord(ck *aliasChunk) {
	K := st.K
	alpha, beta := st.alpha, st.beta
	invDenom, invDenomM1 := st.invDenom, st.invDenomM1
	nwt32 := st.nwt32
	aliasCell, wProp := st.aliasCell, st.wProp
	ndt, z32, tok32 := st.ndt, st.z32, st.tok32
	rng := &ck.rng
	m := st.m

	for d := ck.lo; d < ck.hi; d++ {
		nd := len(m.docs[d])
		if nd == 0 {
			continue
		}
		off := m.docOff[d]
		ndtRow := ndt[d*K : d*K+K]
		zd := z32[off : off+nd]
		tk := tok32[off : off+nd : off+nd]
		for i, sv := range zd {
			w := int(tk[i])
			s := int(sv)
			base := w * K
			hi, lo := bits.Mul64(rng.next(), uint64(K))
			cell := aliasCell[base+int(hi)]
			t := int(hi)
			if uint32(lo>>40) >= cell&(aliasOne-1) {
				t = int(cell >> 24)
			}
			if t == s {
				continue
			}
			// p⁻ⁱ: detach the token from the s entries inline. The
			// acceptance uniform is the proposal draw's spare low bits
			// (see sampleToken).
			wRow := nwt32[base : base+K]
			wpRow := wProp[base : base+K]
			pS := (float64(ndtRow[s]) - 1 + alpha) * (float64(wRow[s]) - 1 + beta) * invDenomM1[s]
			pT := (float64(ndtRow[t]) + alpha) * (float64(wRow[t]) + beta) * invDenom[t]
			lhs, rhs := pT*float64(wpRow[s]), pS*float64(wpRow[t])
			if lhs >= rhs || float64(lo&(1<<40-1))*0x1p-40*rhs < lhs {
				ndtRow[s]--
				ndtRow[t]++
				zd[i] = int32(t)
				ck.deltas = append(ck.deltas, tdelta{w: int32(w), from: uint8(s), to: uint8(t)})
			}
		}
	}
}

// sweepChunkDoc is the doc-proposal (odd-iteration) sweep: the token
// trick over the live assignment array, acceptance with the doc factor
// cancelled.
func (st *aliasSampler) sweepChunkDoc(ck *aliasChunk) {
	K := st.K
	alpha, beta := st.alpha, st.beta
	alphaK, invAlpha := st.alphaK, st.invAlpha
	invDenom, invDenomM1 := st.invDenom, st.invDenomM1
	nwt32 := st.nwt32
	ndt, z32, tok32 := st.ndt, st.z32, st.tok32
	rng := &ck.rng
	m := st.m

	for d := ck.lo; d < ck.hi; d++ {
		nd := len(m.docs[d])
		if nd == 0 {
			continue
		}
		off := m.docOff[d]
		ndtRow := ndt[d*K : d*K+K]
		zd := z32[off : off+nd]
		tk := tok32[off : off+nd : off+nd]
		fnd := float64(nd)
		for i, sv := range zd {
			s := int(sv)
			// Load the word's s count before the proposal draw: nwt32 is
			// frozen during the sweep, so the value is the same either
			// side, and issuing the load here overlaps its cache miss
			// with the RNG dependency chain below.
			w := int(tk[i])
			base := w * K
			cwS := nwt32[base+s]
			r := rng.next()
			u := float64(r>>32) * 0x1p-32 * (fnd + alphaK)
			var t int
			if u < fnd {
				t = int(zd[int(u)])
			} else {
				t = int((u - fnd) * invAlpha)
				if t >= K {
					t = K - 1
				}
			}
			if t == s {
				continue
			}
			// Cancelled doc ratio (see sampleToken): ndtRow[t] is never
			// read. ndtRow still holds the token here, so A = ndt⁻ⁱ[s]+α
			// detaches inline — float-identical to the factored order.
			// The acceptance uniform is the draw's low 32 bits.
			A := float64(ndtRow[s]) - 1 + alpha
			lhs := (float64(nwt32[base+t]) + beta) * invDenom[t] * (A + 1)
			rhs := A * (float64(cwS) - 1 + beta) * invDenomM1[s]
			if lhs >= rhs || float64(uint32(r))*0x1p-32*rhs < lhs {
				ndtRow[s]--
				ndtRow[t]++
				zd[i] = int32(t)
				ck.deltas = append(ck.deltas, tdelta{w: int32(w), from: uint8(s), to: uint8(t)})
			}
		}
	}
}

// merge folds every chunk's transitions into the frozen global state,
// serially in fixed chunk order, bumping the per-word stale counters.
func (st *aliasSampler) merge() {
	for ci := range st.chunks {
		ck := &st.chunks[ci]
		for _, dl := range ck.deltas {
			st.m.nt[dl.from]--
			st.m.nt[dl.to]++
			w := int(dl.w)
			st.nwt32[w*st.K+int(dl.from)]--
			st.nwt32[w*st.K+int(dl.to)]++
			st.stale[w]++
		}
		ck.deltas = ck.deltas[:0]
	}
}

// finish copies the sampler's private state back into the Model.
func (st *aliasSampler) finish() {
	for i, v := range st.nwt32 {
		st.m.nwt[i] = int(v)
	}
	for i, v := range st.z32 {
		st.m.z[i] = int(v)
	}
	for i, v := range st.ndt {
		st.m.ndt[i] = int(v)
	}
}

// fitAlias runs the deterministically parallel alias-table MH fit. Even
// iterations sweep with the word proposal, odd with the doc proposal.
func fitAlias(c *textproc.Corpus, cfg Config) *Model {
	m := newModel(c, cfg)
	if len(m.z) == 0 {
		return m
	}
	st := newAliasSampler(m)
	st.initAssignments()
	st.rebuildTables(true)

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(st.chunks) {
		workers = len(st.chunks)
	}

	for iter := 0; iter < cfg.Iterations; iter++ {
		st.refresh()
		wordStep := aliasWordStep(iter)
		if workers == 1 {
			for ci := range st.chunks {
				st.sweepChunk(&st.chunks[ci], wordStep)
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for i := 0; i < workers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						ci := int(next.Add(1)) - 1
						if ci >= len(st.chunks) {
							return
						}
						st.sweepChunk(&st.chunks[ci], wordStep)
					}
				}()
			}
			wg.Wait()
		}
		st.merge()
		if (iter+1)%aliasRebuildSweeps == 0 {
			st.rebuildTables(false)
		}
	}
	st.finish()
	return m
}
