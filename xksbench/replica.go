package main

import (
	"context"
	"fmt"
	"time"

	"xks"
	"xks/internal/analysis"
	"xks/internal/delta"
	"xks/internal/exec"
	"xks/internal/fault"
	"xks/internal/index"
	"xks/internal/lca"
	"xks/internal/nid"
	"xks/internal/planner"
	"xks/internal/prune"
	"xks/internal/query"
	"xks/internal/rank"
	"xks/internal/rtf"
	"xks/internal/store"
)

// layerDoc is one document's read state for the layer replay, built from
// the same public constructors the engine uses.
type layerDoc struct {
	name     string
	label    string // fault-injection label: the document name in a corpus
	ix       *index.Index
	snap     *delta.Snapshot
	scorer   *rank.Scorer
	labelOf  prune.IDLabelFunc
	content  prune.IDContentFunc
	nodeText func(nid.ID) string
}

// layers replays the read pipeline stage by stage — query parse and
// posting lookup, planner decision, getLCA, getRTF, selection, pruneRTF
// with fragment assembly — calling each layer's public function and
// recording one span per call.
type layers struct {
	an   *analysis.Analyzer
	docs []*layerDoc
	// decodeTime sums the posting lookups that decoded a list on first
	// touch (v3 stores decode lazily, per term).
	decodeTime time.Duration
}

func newLayerDoc(name, label string, ix *index.Index, labelOf prune.IDLabelFunc, content prune.IDContentFunc, text func(nid.ID) string) (*layerDoc, error) {
	var counters delta.Counters
	h := &delta.Head{Tab: ix.Table(), Base: ix}
	snap, err := h.At(h.Tab.Len(), &counters)
	if err != nil {
		return nil, err
	}
	return &layerDoc{name: name, label: label, ix: ix, snap: snap, scorer: rank.NewScorerFrom(snap),
		labelOf: labelOf, content: content, nodeText: text}, nil
}

// storeLayers opens the store file the way the server does and returns its
// layer state, the open time and the mapped bytes.
func storeLayers(path, name string) (*layers, *store.Store, error) {
	st, err := store.OpenFile(path, store.OpenOptions{Mode: store.OpenMmap})
	if err != nil {
		return nil, nil, err
	}
	an := analysis.New()
	ix := st.BuildIndex(an)
	d, err := newLayerDoc(name, "", ix,
		func(id nid.ID) string { return st.LabelAt(int(id)) },
		func(id nid.ID) []string { return st.ContentAt(int(id)) },
		func(nid.ID) string { return "" })
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	return &layers{an: an, docs: []*layerDoc{d}}, st, nil
}

// corpusLayers builds the layer state of every document of a loaded
// corpus, over each engine's current base index and document tree.
func corpusLayers(c *xks.Corpus) (*layers, error) {
	an := analysis.New()
	l := &layers{an: an}
	for _, name := range c.Names() {
		e := c.Engine(name)
		nodes := e.Tree().Nodes()
		words := make([][]string, len(nodes))
		for i, n := range nodes {
			words[i] = an.ContentSet(n.ContentPieces()...)
		}
		d, err := newLayerDoc(name, name, e.Index(),
			func(id nid.ID) string { return nodes[id].Label },
			func(id nid.ID) []string { return words[id] },
			func(id nid.ID) string { return nodes[id].Text })
		if err != nil {
			return nil, err
		}
		l.docs = append(l.docs, d)
	}
	return l, nil
}

// docPlan is one document's planned query and candidates.
type docPlan struct {
	d      *layerDoc
	doc    int
	plan   exec.Plan
	params exec.Params
	cands  []*exec.Candidate
}

// search runs one request through the layers and returns its fragment
// list and the total number of fragment roots.
func (l *layers) search(ctx context.Context, rec *recorder, reqID int, req xks.Request) ([]fragKey, int, error) {
	root := rec.begin("request", -1, reqID)
	defer rec.end(root)
	deferEvents := req.Rank && req.Limit > 0
	var plans []*docPlan
	total := 0
	for i, d := range l.docs {
		p, err := l.plan(rec, root, reqID, d, req)
		if err != nil {
			return nil, 0, err
		}
		if p == nil {
			continue
		}
		p.doc = i
		if err := l.candidates(ctx, rec, root, reqID, p, i, deferEvents); err != nil {
			return nil, 0, err
		}
		total += len(p.cands)
		plans = append(plans, p)
	}

	sel := rec.begin("exec.select", root, reqID)
	var selected []*exec.Candidate
	if deferEvents && len(l.docs) > 1 {
		// The corpus merge: one bounded heap over every document.
		topk := exec.NewTopK(req.Offset + req.Limit)
		for _, p := range plans {
			topk.Offer(p.cands...)
		}
		selected = exec.Page(topk.Ranked(), req.Offset, req.Limit)
	} else {
		var all []*exec.Candidate
		for _, p := range plans {
			all = append(all, p.cands...)
		}
		selected = exec.Select(all, exec.Params{Rank: req.Rank, Limit: req.Limit, Offset: req.Offset})
	}
	rec.end(sel, "candidates", total, "selected", len(selected))

	byDoc := map[int]*docPlan{}
	for _, p := range plans {
		byDoc[p.doc] = p
	}
	out := make([]fragKey, 0, len(selected))
	for _, c := range selected {
		p := byDoc[c.Doc]
		n, err := l.materialize(ctx, rec, root, reqID, p, c)
		if err != nil {
			return nil, 0, err
		}
		out = append(out, fragKey{doc: p.d.name, root: p.params.Tab.Code(c.RTF.Root).String(), nodes: n})
	}
	return out, total, nil
}

// plan is the plan layer for one document: query parse, per-term posting
// lookup on the pinned snapshot, and the planner's decision. A nil plan
// means some term matches nothing in this document.
func (l *layers) plan(rec *recorder, parent, reqID int, d *layerDoc, req xks.Request) (*docPlan, error) {
	sp := rec.begin("plan", parent, reqID)
	terms, err := query.Parse(req.Query, l.an)
	if err != nil {
		rec.end(sp)
		return nil, err
	}
	p := exec.Plan{Keywords: make([]string, len(terms)), IDFWords: make([]string, len(terms))}
	postings := 0
	for i, t := range terms {
		if t.Keyword == "" || t.Label != "" {
			rec.end(sp)
			return nil, fmt.Errorf("layer replay supports plain keywords only, got %q", t.Raw)
		}
		p.Keywords[i], p.IDFWords[i] = t.String(), t.Keyword
		before := d.ix.DecodedLists()
		start := time.Now()
		ids := d.snap.LookupIDs(t.Keyword)
		if d.ix.DecodedLists() != before {
			l.decodeTime += time.Since(start)
		}
		if len(ids) == 0 {
			rec.end(sp, "postings", postings)
			return nil, nil
		}
		postings += len(ids)
		p.Sets = append(p.Sets, ids)
	}
	sizes := make([]int, len(p.Sets))
	for i, s := range p.Sets {
		sizes[i] = len(s)
	}
	p.Decision = planner.Decide(sizes, d.snap.Stats(), planner.Default)
	if req.Semantics != xks.SLCAOnly {
		p.Decision.Strategy = planner.ScanMerge
	}
	rec.end(sp, "postings", postings)
	return &docPlan{d: d, plan: p, params: l.params(d, req)}, nil
}

func (l *layers) params(d *layerDoc, req xks.Request) exec.Params {
	tab := d.snap.Table()
	mode := prune.ValidContributor
	if req.Algorithm == xks.MaxMatch {
		mode = prune.Contributor
	}
	return exec.Params{
		Tab: tab, SLCAOnly: req.Semantics == xks.SLCAOnly, Mode: mode, Rank: req.Rank,
		Score: func(root nid.ID, events []lca.IDEvent, words []string) float64 {
			return d.scorer.ScoreIDs(tab, root, events, words)
		},
		Incremental: d.scorer.Incremental,
		LabelOf:     d.labelOf,
		ContentOf:   d.content,
	}
}

// candidates is the candidate stage for one document: getLCA (span "lca")
// then getRTF dispatch with scoring (span "rtf"). The chaos harness's
// candidates injection point fires inside the lca span, where the engine
// fires it before its own getLCA.
func (l *layers) candidates(ctx context.Context, rec *recorder, parent, reqID int, p *docPlan, doc int, deferEvents bool) error {
	t, sets, d := p.params.Tab, p.plan.Sets, p.plan.Decision
	sp := rec.begin("lca", parent, reqID)
	if err := fault.Inject(ctx, fault.PointCandidates, p.d.label); err != nil {
		rec.end(sp)
		return err
	}
	var roots []nid.ID
	var err error
	switch {
	case !p.params.SLCAOnly:
		roots, err = lca.ELCAStackMergeIDsOrderedCtx(ctx, t, sets, d.Order)
	case d.Strategy == planner.ScanMerge:
		roots, err = lca.SLCAScanMergeIDsCtx(ctx, t, sets, d.Order)
	default:
		roots, err = lca.SLCAIDsCtx(ctx, t, sets)
	}
	rec.end(sp, "roots", len(roots))
	if err != nil {
		return err
	}

	sp = rec.begin("rtf", parent, reqID)
	if deferEvents {
		scored, err := rtf.BuildScoredIDsCtx(ctx, t, roots, sets, p.params.Incremental(p.plan.IDFWords), d.Order, d.Skip)
		if err != nil {
			rec.end(sp)
			return err
		}
		hulls := make([]rtf.IDRTF, len(scored))
		for i, s := range scored {
			hulls[i].Root = s.Root
			isSLCA := !(i+1 < len(scored) && t.IsAncestorOf(s.Root, scored[i+1].Root))
			p.cands = append(p.cands, &exec.Candidate{Doc: doc, Seq: i, RTF: &hulls[i], Roots: roots, IsSLCA: isSLCA, Score: s.Score})
		}
	} else {
		rtfs, err := rtf.BuildIDsPlanned(ctx, t, roots, sets, d.Order, d.Skip)
		if err != nil {
			rec.end(sp)
			return err
		}
		for i, r := range rtfs {
			c := &exec.Candidate{Doc: doc, Seq: i, RTF: r, IsSLCA: !(i+1 < len(rtfs) && t.IsAncestorOf(r.Root, rtfs[i+1].Root))}
			if p.params.Rank {
				c.Score = p.params.Score(r.Root, r.KeywordNodes, p.plan.IDFWords)
			}
			p.cands = append(p.cands, c)
		}
	}
	rec.end(sp, "candidates", len(p.cands))
	return nil
}

// fragNode mirrors the public fragment node the engine assembles.
type fragNode struct {
	dewey, label, text string
	level              int
	matched            []string
}

// materialize is the prune layer for one selected candidate: event
// hydration for score-only candidates, pruneRTF (exec.Materialize), and
// assembly of the fragment's nodes. The chaos harness's materialize
// injection point fires first, as in the engine. It returns the fragment
// size.
func (l *layers) materialize(ctx context.Context, rec *recorder, parent, reqID int, p *docPlan, c *exec.Candidate) (int, error) {
	sp := rec.begin("prune", parent, reqID)
	if err := fault.Inject(ctx, fault.PointMaterialize, p.d.label); err != nil {
		rec.end(sp)
		return 0, err
	}
	tab := p.params.Tab
	if c.RTF.KeywordNodes == nil && c.Roots != nil {
		h := *c
		h.RTF = &rtf.IDRTF{Root: c.RTF.Root, KeywordNodes: rtf.EventsFor(tab, c.RTF.Root, c.Roots, p.plan.Sets)}
		c = &h
	}
	kept := exec.Materialize(c, p.params)
	events := c.RTF.KeywordNodes
	nodes := make([]fragNode, 0, len(kept.KeptIDs))
	var buf []byte
	j := 0
	for i, id := range kept.KeptIDs {
		code := kept.Kept[i]
		buf = code.AppendString(buf[:0])
		n := fragNode{dewey: string(buf), label: p.d.labelOf(id), text: p.d.nodeText(id), level: code.Level()}
		for j < len(events) && events[j].ID < id {
			j++
		}
		if j < len(events) && events[j].ID == id {
			for k, w := range p.plan.Keywords {
				if events[j].Mask&(1<<uint(k)) != 0 {
					n.matched = append(n.matched, w)
				}
			}
		}
		nodes = append(nodes, n)
	}
	rec.end(sp, "visited", kept.Visited, "kept", len(nodes))
	return len(nodes), nil
}
