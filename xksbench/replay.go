package main

import (
	"context"
	"encoding/json"
	"fmt"
	"iter"
	"math"
	"net/http"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"time"

	"xks"
	"xks/internal/admission"
	"xks/internal/httpapi"
	"xks/internal/service"
)

// replayLayers is the --trace 1 half of a run: it replays a prefix of the
// reference phase in process, one operation at a time, records spans at
// every layer boundary, writes them out, and fills m with the per-layer
// metrics. It returns a description of any output mismatch.
func replayLayers(cfg config, plan *opPlan, in *inputs, m map[string]metric) (string, error) {
	ops := plan.refOps
	if n := cfg.w.replayOps; len(ops) > n {
		ops = ops[:n]
	}
	// A fresh in-process copy of the data: the reference searcher has not
	// seen the appends the replay applies.
	ref, closeRef, err := openReference(cfg.w, in)
	if err != nil {
		return "", err
	}
	defer closeRef()
	rp, err := newReplay(cfg.w, in, ref)
	if err != nil {
		return "", err
	}
	defer rp.close()
	bad, err := rp.run(context.Background(), ops)
	if err != nil {
		return "", err
	}
	rp.metrics(m)
	path := filepath.Join(filepath.Dir(cfg.dir), fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	if err := writeSpans(path, rp.recs()...); err != nil {
		return "", err
	}
	logf("traced replay: %d operations, spans in %s", len(ops), path)
	return bad, nil
}

// replay holds the in-process stacks the traced passes run through.
type replay struct {
	w      workloadDef
	ref    service.Searcher
	layers *layers
	closeL func()

	// Stacks: the driver alone; a service over a traced driver (pass
	// "service"); the HTTP handler over another one (pass "httpapi").
	svcA    *service.Service
	handler http.Handler

	cold, untraced, warm, driver, svc, handled *recorder

	// Per-request values outside the span trees.
	firstFrag []float64
	storeOpen []float64
	mapped    float64
	decoded   int64
	appendMS  []float64
	compactMS []float64
	segsMax   int64
	pinnedEnd int64
	// runtime/metrics deltas over the handler pass.
	allocs, allocBytes, gcCPU, usedCPU float64
	handledReqs                        int
	layerTime, untracedTime            time.Duration
}

func newReplay(w workloadDef, in *inputs, ref service.Searcher) (*replay, error) {
	epoch := time.Now()
	rp := &replay{w: w, ref: ref, closeL: func() {}}
	for _, p := range []struct {
		r    **recorder
		name string
	}{{&rp.cold, "layers-cold"}, {&rp.untraced, "layers-untraced"}, {&rp.warm, "layers"}, {&rp.driver, "xks"}, {&rp.svc, "service"}, {&rp.handled, "httpapi"}} {
		*p.r = newRecorder(p.name, epoch)
	}
	rp.untraced.on = false
	if w.store {
		// store.open_ms: the median of a few opens of the same file.
		for i := 0; i < 5; i++ {
			start := time.Now()
			l, st, err := storeLayers(in.storePath, in.docs[0])
			if err != nil {
				return nil, err
			}
			rp.storeOpen = append(rp.storeOpen, ms(time.Since(start)))
			rp.mapped = float64(st.MappedBytes())
			if i < 4 {
				st.Close()
				continue
			}
			rp.layers, rp.closeL = l, func() { st.Close() }
		}
	} else {
		l, err := corpusLayers(ref.(*xks.Corpus))
		if err != nil {
			return nil, err
		}
		rp.layers = l
	}
	rp.svcA = service.New(rp.traced(rp.svc), service.Config{CacheSize: 1024})
	rp.handler = httpapi.NewHandler(service.New(rp.traced(rp.handled), service.Config{CacheSize: 1024}),
		&httpapi.Options{Admission: admission.New(admission.Config{})})
	return rp, nil
}

func (rp *replay) close() { rp.closeL() }

func (rp *replay) recs() []*recorder {
	return []*recorder{rp.cold, rp.warm, rp.driver, rp.svc, rp.handled}
}

// traced wraps the reference searcher so each call the service makes into
// the driver records an "xks" span under the caller's span.
func (rp *replay) traced(rec *recorder) service.Searcher {
	if c, ok := rp.ref.(*xks.Corpus); ok {
		return tracedCorpus{c, rec}
	}
	return tracedSingle{rp.ref.(service.SingleDoc), rec}
}

type tracedCorpus struct {
	*xks.Corpus
	rec *recorder
}

func (t tracedCorpus) Search(ctx context.Context, req xks.Request) (*xks.Results, error) {
	return traceSearch(ctx, t.rec, req, t.Corpus.Search)
}

func (t tracedCorpus) Stream(ctx context.Context, req xks.Request) (iter.Seq2[xks.CorpusFragment, error], func() *xks.Results) {
	return traceStream(ctx, t.rec, req, t.Corpus.Stream)
}

type tracedSingle struct {
	service.SingleDoc
	rec *recorder
}

func (t tracedSingle) Search(ctx context.Context, req xks.Request) (*xks.Results, error) {
	return traceSearch(ctx, t.rec, req, t.SingleDoc.Search)
}

func (t tracedSingle) Stream(ctx context.Context, req xks.Request) (iter.Seq2[xks.CorpusFragment, error], func() *xks.Results) {
	return traceStream(ctx, t.rec, req, t.SingleDoc.Stream)
}

func traceSearch(ctx context.Context, rec *recorder, req xks.Request, fn func(context.Context, xks.Request) (*xks.Results, error)) (*xks.Results, error) {
	sc := spanFrom(ctx)
	id := rec.begin("xks", sc.parent, sc.req)
	defer rec.end(id)
	return fn(ctx, req)
}

// traceStream records the driver's streamed search as one "xks" span, with
// a "consumer" child for each interval a yielded fragment spent with the
// caller (the service, the handler writing the NDJSON line).
func traceStream(ctx context.Context, rec *recorder, req xks.Request, fn func(context.Context, xks.Request) (iter.Seq2[xks.CorpusFragment, error], func() *xks.Results)) (iter.Seq2[xks.CorpusFragment, error], func() *xks.Results) {
	seq, trailer := fn(ctx, req)
	sc := spanFrom(ctx)
	return func(yield func(xks.CorpusFragment, error) bool) {
		id := rec.begin("xks", sc.parent, sc.req)
		defer rec.end(id)
		for f, err := range seq {
			c := rec.begin("consumer", id, sc.req)
			ok := yield(f, err)
			rec.end(c)
			if !ok {
				return
			}
		}
	}, trailer
}

// run replays ops: first every read through the layer pipeline (cold,
// untraced and traced passes over the data as generated), then each
// operation in order through the driver, the service and the handler,
// applying appends to the shared in-process data in between.
func (rp *replay) run(ctx context.Context, ops []op) (string, error) {
	type pageReq struct {
		id  int
		req xks.Request
	}
	// The layer passes page walks by offset over the base data.
	var pages []pageReq
	id := 0
	for _, o := range ops {
		if o.kind == opAppend {
			continue
		}
		req := o.read.request()
		if o.kind != opWalk {
			pages = append(pages, pageReq{id, req})
			id++
			continue
		}
		for off := 0; off < maxWalkPages*pageLimit; off += pageLimit {
			req.Offset = off
			pages = append(pages, pageReq{id, req})
			id++
			_, total, err := rp.layers.search(ctx, rp.untraced, -1, req)
			if err != nil {
				return "", err
			}
			if off+pageLimit >= total {
				break
			}
		}
	}
	layerOut := map[int][]fragKey{}
	for pass, rec := range []*recorder{rp.cold, rp.untraced, rp.warm} {
		start := time.Now()
		for _, p := range pages {
			keys, _, err := rp.layers.search(ctx, rec, p.id, p.req)
			if err != nil {
				return "", err
			}
			layerOut[p.id] = keys
		}
		switch pass {
		case 0:
			for _, d := range rp.layers.docs {
				rp.decoded += d.ix.DecodedLists()
			}
		case 1:
			rp.untracedTime = time.Since(start)
		case 2:
			rp.layerTime = time.Since(start)
		}
	}

	bad := ""
	id = 0
	appends := 0
	for _, o := range ops {
		if o.kind == opAppend {
			if err := rp.append(ctx, o, &appends); err != nil {
				return "", err
			}
			continue
		}
		req := o.read.request()
		for {
			keys, cursor, err := rp.drive(ctx, id, req, o.kind == opWalk)
			if err != nil {
				return "", err
			}
			if err := rp.serve(ctx, id, req, o.kind == opWalk); err != nil {
				return "", err
			}
			if bad == "" && !rp.w.writes && !sameKeys(keys, layerOut[id]) {
				bad = fmt.Sprintf("layer replay of %q disagrees with the driver:%s vs%s", req.Query, describeKeys(layerOut[id]), describeKeys(keys))
			}
			id++
			if o.kind != opWalk || cursor == "" {
				break
			}
			req.Cursor, req.Offset = xks.Cursor(cursor), 0
		}
	}
	if d, ok := rp.ref.(service.DeltaReporter); ok {
		rp.pinnedEnd = d.DeltaInfo().PinnedSnapshots
		if rp.pinnedEnd != 0 && bad == "" {
			bad = fmt.Sprintf("%d snapshots pinned after the replay", rp.pinnedEnd)
		}
	}
	return bad, nil
}

// append applies one append to the in-process data (span-free: its time
// is the delta layer's append), compacting after every tenth as the
// server's background compactor would at the workload's write rate.
func (rp *replay) append(ctx context.Context, o op, n *int) error {
	c := rp.ref.(*xks.Corpus)
	start := time.Now()
	if err := c.AppendXML(o.doc, "0", o.snippet); err != nil {
		return err
	}
	rp.appendMS = append(rp.appendMS, ms(time.Since(start)))
	rp.segsMax = max(rp.segsMax, c.DeltaInfo().Segments)
	*n++
	if *n%10 == 0 {
		start := time.Now()
		if _, err := c.Compact(ctx); err != nil {
			return err
		}
		rp.compactMS = append(rp.compactMS, ms(time.Since(start)))
	}
	return nil
}

// drive runs one page through the driver's streamed search (span "xks"),
// then renders its fragments (span "render"), returning the fragment list
// and the next page's cursor.
func (rp *replay) drive(ctx context.Context, id int, req xks.Request, walk bool) ([]fragKey, string, error) {
	seq, trailer := rp.ref.(service.Streamer).Stream(ctx, req)
	var frags []xks.CorpusFragment
	sp := rp.driver.begin("xks", -1, id)
	start := time.Now()
	for f, err := range seq {
		if err != nil {
			rp.driver.end(sp)
			return nil, "", err
		}
		if len(frags) == 0 {
			rp.firstFrag = append(rp.firstFrag, ms(time.Since(start)))
		}
		frags = append(frags, f)
	}
	res := trailer()
	rp.driver.end(sp, "fragments", len(frags), "roots", res.Stats.NumLCAs)

	var cw countWriter
	sp = rp.driver.begin("render", -1, id)
	keys := make([]fragKey, len(frags))
	for i, f := range frags {
		if err := f.WriteXML(&cw); err != nil {
			rp.driver.end(sp)
			return nil, "", err
		}
		keys[i] = fragKey{doc: f.Document, root: f.Root, nodes: f.Len()}
	}
	rp.driver.end(sp, "bytes", cw.n)
	cursor := ""
	if walk {
		cursor = string(res.Cursor)
	}
	return keys, cursor, nil
}

// serve runs one page through the service (span "service", the driver
// call under it, then the response encoding as span "encode") and through
// the HTTP handler (span "httpapi"), each stack with its own cache fed
// the same request sequence.
func (rp *replay) serve(ctx context.Context, id int, req xks.Request, stream bool) error {
	sp := rp.svc.begin("service", -1, id)
	sctx := withSpan(ctx, sp, id)
	var res *xks.Results
	var frags []xks.CorpusFragment
	if stream {
		seq, trailer := rp.svcA.Stream(sctx, req)
		for f, err := range seq {
			if err != nil {
				rp.svc.end(sp)
				return err
			}
			frags = append(frags, f)
		}
		res = trailer()
	} else {
		var err error
		if res, _, err = rp.svcA.Search(sctx, req); err != nil {
			rp.svc.end(sp)
			return err
		}
		frags = res.Fragments
	}
	rp.svc.end(sp)

	// The handler's encoding of the same page: JSON envelope, or NDJSON
	// fragment lines plus the trailer record.
	var cw countWriter
	sp = rp.svc.begin("encode", -1, id)
	enc := json.NewEncoder(&cw)
	if stream {
		for _, f := range frags {
			if err := enc.Encode(httpapi.ToFragment(f, false)); err != nil {
				return err
			}
		}
		if err := enc.Encode(httpapi.ToStreamTrailer(res)); err != nil {
			return err
		}
	} else {
		resp := httpapi.Response{Query: req.Query, Keywords: res.Stats.Keywords, NumLCAs: res.Stats.NumLCAs,
			Cursor: string(res.Cursor), PerDocument: res.PerDocument}
		for _, f := range frags {
			resp.Fragments = append(resp.Fragments, httpapi.ToFragment(f, false))
		}
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
	rp.svc.end(sp, "bytes", cw.n)

	path := readReqOf(req, stream).path()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://xksbench"+path, nil)
	if err != nil {
		return err
	}
	var rw bodyWriter
	before := readRuntime()
	sp = rp.handled.begin("httpapi", -1, id)
	hreq = hreq.WithContext(withSpan(ctx, sp, id))
	rp.handler.ServeHTTP(&rw, hreq)
	rp.handled.end(sp, "bytes", len(rw.body))
	after := readRuntime()
	rp.allocs += after[0] - before[0]
	rp.allocBytes += after[1] - before[1]
	rp.gcCPU += after[2] - before[2]
	rp.usedCPU += (after[3] - before[3]) - (after[4] - before[4])
	rp.handledReqs++
	if rw.code != 0 && rw.code != http.StatusOK {
		return fmt.Errorf("handler replay of %s: status %d: %.200s", path, rw.code, rw.body)
	}
	if _, _, _, bad := scanResponse(rw.body); bad != "" {
		return fmt.Errorf("handler replay of %s: %s", path, bad)
	}
	return nil
}

// readReqOf is the URL form of a replayed request.
func readReqOf(req xks.Request, stream bool) readReq {
	r := readReq{q: req.Query, rank: req.Rank, limit: req.Limit, offset: req.Offset, cursor: string(req.Cursor),
		stream: stream, slca: req.Semantics == xks.SLCAOnly}
	if req.Algorithm == xks.MaxMatch {
		r.algo = "maxmatch"
	}
	return r
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() [5]float64 {
	metrics.Read(runtimeSamples)
	var out [5]float64
	for i, s := range runtimeSamples {
		switch s.Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s.Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s.Value.Float64()
		}
	}
	return out
}

type countWriter struct{ n int }

func (c *countWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// bodyWriter is the in-process http.ResponseWriter of the handler pass.
type bodyWriter struct {
	h    http.Header
	code int
	body []byte
}

func (w *bodyWriter) Header() http.Header {
	if w.h == nil {
		w.h = http.Header{}
	}
	return w.h
}

func (w *bodyWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *bodyWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

func (w *bodyWriter) Flush() {}

// metrics turns the recorded spans into the per-layer metrics.
func (rp *replay) metrics(m map[string]metric) {
	perReq := func(rec *recorder, names ...string) []float64 {
		st := rec.selfTimes()
		ids := make([]int, 0, len(st))
		for id := range st {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		var out []float64
		for _, id := range ids {
			var d time.Duration
			seen := false
			for _, n := range names {
				if v, ok := st[id][n]; ok {
					d += v
					seen = true
				}
			}
			if seen {
				out = append(out, ms(d))
			}
		}
		return out
	}
	counts := func(rec *recorder, name, key string) (sum float64, n int) {
		for _, s := range rec.spans {
			if s.Name == name {
				sum += float64(s.Counts[key])
				n++
			}
		}
		return sum, n
	}
	meanCount := func(rec *recorder, name, key string) float64 {
		s, n := counts(rec, name, key)
		return s / math.Max(1, float64(n))
	}

	for _, l := range []string{"plan", "lca", "rtf", "prune"} {
		m[l+".ms_p50"] = metric{zeroNaN(median(perReq(rp.warm, l))), "ms"}
	}
	m["exec.select_ms_p50"] = metric{zeroNaN(median(perReq(rp.warm, "exec.select"))), "ms"}
	m["plan.postings_mean"] = metric{meanCount(rp.warm, "plan", "postings"), "count"}
	m["lca.roots_mean"] = metric{meanCount(rp.warm, "lca", "roots"), "count"}
	m["rtf.candidates_mean"] = metric{meanCount(rp.warm, "rtf", "candidates"), "count"}
	cands, _ := counts(rp.warm, "exec.select", "candidates")
	sel, _ := counts(rp.warm, "exec.select", "selected")
	m["exec.selected_ratio"] = metric{sel / math.Max(1, cands), "ratio"}
	m["prune.nodes_visited_mean"] = metric{meanCount(rp.warm, "prune", "visited"), "count"}
	visited, _ := counts(rp.warm, "prune", "visited")
	kept, _ := counts(rp.warm, "prune", "kept")
	m["prune.kept_ratio"] = metric{kept / math.Max(1, visited), "ratio"}
	m["postings.lists_decoded"] = metric{float64(rp.decoded), "count"}
	m["postings.decode_ms_total"] = metric{ms(rp.layers.decodeTime), "ms"}
	m["store.open_ms"] = metric{zeroNaN(median(rp.storeOpen)), "ms"}
	m["store.mapped_bytes"] = metric{rp.mapped, "bytes"}
	m["trace.overhead_ratio"] = metric{rp.layerTime.Seconds()/math.Max(1e-9, rp.untracedTime.Seconds()) - 1, "ratio"}

	// Driver pass: whole-driver time excludes the bench's own collection.
	m["xks.search_ms_p50"] = metric{zeroNaN(median(perReq(rp.driver, "xks"))), "ms"}
	m["xks.first_fragment_ms_p50"] = metric{zeroNaN(median(rp.firstFrag)), "ms"}
	m["render.ms_p50"] = metric{zeroNaN(median(perReq(rp.driver, "render"))), "ms"}
	m["render.bytes_mean"] = metric{meanCount(rp.driver, "render", "bytes"), "bytes"}

	// Service pass: its self time is the service span minus the driver's
	// own time (consumer intervals under the driver are service work).
	svcSelf := rp.svc.selfTimes()
	var svcMS, encMS []float64
	hand := rp.handled.selfTimes()
	var handMS []float64
	var handTotal, unattributed time.Duration
	for id, st := range svcSelf {
		self := st["service"] + st["consumer"]
		svcMS = append(svcMS, ms(self))
		encMS = append(encMS, ms(st["encode"]))
		h, ok := hand[id]
		if !ok {
			continue
		}
		handler := h["httpapi"] + h["consumer"] + h["xks"]
		httpSelf := handler - h["xks"] - self
		handMS = append(handMS, ms(httpSelf))
		handTotal += handler
		unattributed += httpSelf - st["encode"]
	}
	m["service.self_ms_p50"] = metric{zeroNaN(median(svcMS)), "ms"}
	m["httpapi.encode_ms_p50"] = metric{zeroNaN(median(encMS)), "ms"}
	m["httpapi.resp_bytes_mean"] = metric{meanCount(rp.svc, "encode", "bytes"), "bytes"}
	m["httpapi.self_ms_p50"] = metric{zeroNaN(median(handMS)), "ms"}
	m["trace.unattributed_ratio"] = metric{unattributed.Seconds() / math.Max(1e-9, handTotal.Seconds()), "ratio"}

	n := math.Max(1, float64(rp.handledReqs))
	m["runtime.allocs_per_op"] = metric{rp.allocs / n, "count"}
	m["runtime.alloc_bytes_per_op"] = metric{rp.allocBytes / n, "bytes"}
	m["runtime.gc_cpu_fraction"] = metric{rp.gcCPU / math.Max(1e-9, rp.usedCPU), "ratio"}

	m["delta.append_ms_p50"] = metric{zeroNaN(median(rp.appendMS)), "ms"}
	m["delta.compact_ms_p50"] = metric{zeroNaN(median(rp.compactMS)), "ms"}
	m["delta.segments_max"] = metric{float64(rp.segsMax), "count"}
}
