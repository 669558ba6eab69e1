package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"xks"
	"xks/internal/service"
)

// opPlan draws a workload's operations and checks their outputs. The
// request population is fixed per workload (drawn by pop, like the
// documents), so every run measures the same work; the run's seed (rng)
// orders it and draws the appended records.
type opPlan struct {
	w   workloadDef
	pop *rand.Rand
	rng *rand.Rand
	ref service.Searcher
	in  *inputs

	// store-topk-miss: every read distinct.
	mix *storeMix

	// corpus-topk-hot: a fixed request set (first pages and page-2 cursor
	// follow-ups) with precomputed reference outputs, drawn Zipf-skewed.
	hot     []readReq
	hotRefs [][]fragKey
	zipf    *rand.Zipf

	// corpus-scroll-append: a pool of walk queries and paced appends.
	walks   []readReq
	pages   []int
	appends int

	// refOps are the reference phase's operations; the traced replay
	// repeats a prefix of them in process.
	refOps []op

	// segs are the max_read_qps probes' read segments (see probe).
	segs [][]op
}

func newOpPlan(w workloadDef, seed int64, ref service.Searcher, in *inputs) (*opPlan, error) {
	p := &opPlan{w: w, pop: rand.New(rand.NewSource(dataSeed)), rng: rand.New(rand.NewSource(seed)), ref: ref, in: in}
	switch {
	case w.store:
		p.mix = &storeMix{rng: p.pop, seen: map[string]bool{}}
	case w.writes:
		start := time.Now()
		if err := p.buildWalks(); err != nil {
			return nil, err
		}
		logf("walk pool: %d walks in %v", len(p.walks), time.Since(start).Round(time.Millisecond))
	default:
		if err := p.buildHotSet(); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// buildHotSet draws distinct ranked top-10 first pages whose fragments
// hold at least hotMinNodes nodes, plus a page-2 follow-up for every other
// one with a second page, hotSet requests in all, and computes their
// reference outputs. Large pages make a hit's cost the response encoding,
// not the host's scheduling jitter.
func (p *opPlan) buildHotSet() error {
	seen := map[string]bool{}
	for len(p.hot) < hotSet && len(seen) <= 20*hotSet {
		r := readReq{q: corpusQuery(p.pop), rank: true, limit: pageLimit}
		if seen[r.key()] {
			continue
		}
		seen[r.key()] = true
		keys, lcas, err := refKeys(p.ref, r.request())
		if err != nil {
			return err
		}
		nodes := 0
		for _, k := range keys {
			nodes += k.nodes
		}
		if nodes < hotMinNodes {
			continue
		}
		p.hot = append(p.hot, r)
		p.hotRefs = append(p.hotRefs, keys)
		if lcas > pageLimit && len(p.hot)%2 == 0 {
			f := r
			f.offset = pageLimit
			fk, _, err := refKeys(p.ref, f.request())
			if err != nil {
				return err
			}
			p.hot = append(p.hot, f)
			p.hotRefs = append(p.hotRefs, fk)
		}
	}
	p.pop.Shuffle(len(p.hot), func(i, j int) {
		p.hot[i], p.hot[j] = p.hot[j], p.hot[i]
		p.hotRefs[i], p.hotRefs[j] = p.hotRefs[j], p.hotRefs[i]
	})
	p.zipf = rand.NewZipf(p.pop, 1.1, 1, uint64(len(p.hot)-1))
	return nil
}

// warmup runs the untimed operations that let caches fill and lazy
// set-up finish: on the store, distinct reads until the server's cache is
// full, so the timed phase runs at the steady heap size of a full cache;
// the hot set's first pages (their cursors then complete the follow-ups)
// and the follow-ups themselves; two seconds of walks and appends.
func (p *opPlan) warmup(c *client) []opResult {
	var ops []op
	switch {
	case p.w.store:
		for i := 0; i < storeWarm; i++ {
			ops = append(ops, op{kind: opRead, read: p.mix.next(), ref: -1})
		}
	case p.w.writes:
		ops = p.phase(p.w.refRate/2, 2*time.Second)
	default:
		for i, r := range p.hot {
			if r.offset == 0 {
				ops = append(ops, op{kind: opRead, read: r, ref: i})
			}
		}
	}
	rs := c.runPhase(ops, time.Hour)
	if p.hot == nil {
		return rs
	}
	// Follow-ups resume from their first page's cursor.
	cursors := map[string]string{}
	for _, r := range rs {
		if len(r.pages) == 1 {
			cursors[r.op.read.q] = r.pages[0].cursor
		}
	}
	var follow []op
	for i := range p.hot {
		if p.hot[i].offset > 0 {
			p.hot[i].cursor = cursors[p.hot[i].q]
			follow = append(follow, op{kind: opRead, read: p.hot[i], ref: i})
		}
	}
	return append(rs, c.runPhase(follow, time.Hour)...)
}

// phase draws the operations of one open-loop phase at rate reads/s
// (pages/s for walks) lasting dur: the next reads of the fixed population,
// in an order the seed shuffles, and on write workloads appends at the
// write rate.
func (p *opPlan) phase(rate float64, dur time.Duration) []op {
	n := int(math.Ceil(rate * dur.Seconds()))
	var reads []op
	for pages := 0; pages < n; {
		o := p.draw()
		reads = append(reads, o)
		pages += p.opPages(o)
	}
	return p.schedule(reads, rate, dur)
}

// probe draws the operations of the k-th max_read_qps probe, at rate for
// dur. Its reads are a prefix of probe segment k: the segments are drawn
// from the population once, at the first probe, probeSegReads reads
// each, so the k-th probe of every run serves the same requests whatever
// rungs the search visited before it, and which requests a rung gets is
// not one more thing that differs between runs. A probe that needs more
// reads than its segment holds continues with fresh draws.
func (p *opPlan) probe(k int, rate float64, dur time.Duration) []op {
	if p.segs == nil {
		p.segs = make([][]op, 2*ladderProbes)
		for s := range p.segs {
			for i := 0; i < probeSegReads; i++ {
				p.segs[s] = append(p.segs[s], p.draw())
			}
		}
	}
	n := int(math.Ceil(rate * dur.Seconds()))
	var reads []op
	for i, pages := 0, 0; pages < n; i++ {
		var o op
		if i < len(p.segs[k]) {
			o = p.segs[k][i]
		} else {
			o = p.draw()
		}
		reads = append(reads, o)
		pages += p.opPages(o)
	}
	return p.schedule(reads, rate, dur)
}

// draw is the next read of the fixed population: a distinct store read, a
// walk of the pool, or a Zipf draw of the hot set.
func (p *opPlan) draw() op {
	switch {
	case p.w.store:
		return op{kind: opRead, read: p.mix.next(), ref: -1}
	case p.w.writes:
		j := p.pop.Intn(len(p.walks))
		return op{kind: opWalk, read: p.walks[j], ref: j}
	default:
		j := int(p.zipf.Uint64())
		return op{kind: opRead, read: p.hot[j], ref: j}
	}
}

// opPages is how many pages a drawn read fetches.
func (p *opPlan) opPages(o op) int {
	if o.kind == opWalk {
		return p.pages[o.ref]
	}
	return 1
}

// schedule shuffles reads in an order the seed draws, spaces them at rate
// (pages/s for walks) and, on write workloads, adds appends at the write
// rate for dur.
func (p *opPlan) schedule(reads []op, rate float64, dur time.Duration) []op {
	p.rng.Shuffle(len(reads), func(i, j int) { reads[i], reads[j] = reads[j], reads[i] })
	pages := 0
	for i := range reads {
		reads[i].due = at(pages, rate)
		pages += p.opPages(reads[i])
		if reads[i].kind == opWalk {
			reads[i].ref = -1
		}
	}
	if !p.w.writes {
		return reads
	}
	ops := reads
	for i := 0; i < int(math.Ceil(p.w.writeRate*dur.Seconds())); i++ {
		doc := p.in.docs[p.rng.Intn(len(p.in.docs))]
		snippet, marker := appendSnippet(p.rng, doc, p.appends)
		p.appends++
		ops = append(ops, op{kind: opAppend, doc: doc, snippet: snippet, marker: marker, ref: -1, due: at(i, p.w.writeRate)})
	}
	// Stable, so equal-due ops keep their draw order.
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].due < ops[j].due })
	return ops
}

func at(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// buildWalks draws the pool of streamed walks: distinct queries whose
// result sets span several pages on the generated data. Appends between
// two walks of the same query change the corpus version, so a repeated
// walk misses the cache.
func (p *opPlan) buildWalks() error {
	seen := map[string]bool{}
	for len(p.walks) < walkPool {
		r := readReq{q: corpusQuery(p.pop), rank: p.pop.Intn(10) < 7, limit: pageLimit, stream: true}
		if p.pop.Intn(5) == 0 {
			r.slca = true
		}
		if seen[r.key()] {
			continue
		}
		seen[r.key()] = true
		probe := r.request()
		probe.Rank, probe.Limit = false, 1
		_, lcas, err := refKeys(p.ref, probe)
		if err != nil {
			return err
		}
		if lcas >= walkMinLCAs && lcas <= walkMaxLCAs {
			p.walks = append(p.walks, r)
			p.pages = append(p.pages, (lcas+pageLimit-1)/pageLimit)
		}
	}
	return nil
}

// finalChecks runs the untimed end-of-run checks: on write workloads,
// every acknowledged append must be searchable by its marker in its
// document, and no snapshot may stay pinned once the load has stopped.
func (p *opPlan) finalChecks(c *client, metrics map[string]float64, done []opResult) []opResult {
	if !p.w.writes {
		return nil
	}
	var out []opResult
	if pinned := metrics["xks_snapshots_pinned"]; pinned != 0 {
		out = append(out, opResult{op: &op{kind: opRead}, failed: fmt.Sprintf("%v snapshots still pinned after the load", pinned)})
	}
	for _, d := range done {
		a := d.op
		if a.kind != opAppend || d.failed != "" {
			continue
		}
		r := readReq{q: a.marker}
		o := &op{kind: opRead, read: r, ref: -1}
		_, pg, bad := c.get(r.path(), false, time.Now(), nil)
		res := opResult{op: o, failed: bad}
		if bad == "" {
			found := false
			for _, f := range pg.frags {
				found = found || f.doc == a.doc
			}
			if pg.numLcas != 1 || !found {
				res.failed = fmt.Sprintf("appended record %s not visible in %s (numLcas %d)", a.marker, a.doc, pg.numLcas)
			}
		}
		out = append(out, res)
	}
	return out
}

// check marks every operation whose output is wrong: reads must equal the
// reference search of the same request, walks must tile their result set
// exactly.
func (p *opPlan) check(all []opResult) error {
	if p.w.store {
		var idx []int
		var reqs []xks.Request
		for i, r := range all {
			if r.failed == "" && r.op.kind == opRead && r.op.read.q != "" && len(r.pages) == 1 {
				idx = append(idx, i)
				reqs = append(reqs, r.op.read.request())
			}
		}
		keys, _, err := parallelRefs(p.ref, reqs)
		if err != nil {
			return err
		}
		for k, i := range idx {
			if !sameKeys(all[i].pages[0].frags, keys[k]) {
				all[i].failed = fmt.Sprintf("%s: got%s want%s", all[i].op.read.path(), describeKeys(all[i].pages[0].frags), describeKeys(keys[k]))
			}
		}
		return nil
	}
	for i := range all {
		r := &all[i]
		if r.failed != "" {
			continue
		}
		switch {
		case r.op.kind == opRead && r.op.ref >= 0:
			if !sameKeys(r.pages[0].frags, p.hotRefs[r.op.ref]) {
				r.failed = fmt.Sprintf("%s: got%s want%s", r.op.read.path(), describeKeys(r.pages[0].frags), describeKeys(p.hotRefs[r.op.ref]))
			}
		case r.op.kind == opWalk:
			if bad := tiles(r.pages); bad != "" {
				r.failed = r.op.read.path() + ": " + bad
			}
		}
	}
	return nil
}

// tiles checks that a cursor walk covered its (pinned) result set exactly:
// every page reports the same total, no (doc, root) repeats, and the
// pages together hold exactly that many fragments.
func tiles(pages []page) string {
	seen := map[[2]string]int{} // fragment -> page it was first on
	total := pages[0].numLcas
	for i, pg := range pages {
		if pg.numLcas != total {
			return fmt.Sprintf("walk: numLcas changed mid-walk (%d then %d)", total, pg.numLcas)
		}
		for _, f := range pg.frags {
			k := [2]string{f.doc, f.root}
			if first, dup := seen[k]; dup {
				return fmt.Sprintf("walk: duplicate fragment %s:%s on pages %d and %d of %d (numLcas %d)", f.doc, f.root, first+1, i+1, len(pages), total)
			}
			seen[k] = i
		}
	}
	if len(seen) != total {
		return fmt.Sprintf("walk: %d fragments over %d pages, want %d", len(seen), len(pages), total)
	}
	return ""
}
