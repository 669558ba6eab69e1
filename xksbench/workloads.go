package main

import (
	"fmt"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"xks"
	"xks/internal/analysis"
	"xks/internal/datagen"
	"xks/internal/store"
	"xks/internal/workload"
	"xks/internal/xmltree"
)

// workloadDef fixes everything about a workload except the seed: the data
// shape, the server flags, the request mix, the reference rate and the
// max_read_qps ladder. NOTES.md says why each workload exists.
type workloadDef struct {
	name string
	// store serves one generated DBLP document shredded to a v3 store
	// (-store -mmap on); otherwise a -dir corpus of DBLP + XMark documents.
	store bool
	// writes enables -allow-writes with background compaction and paced
	// POST /append tail appends beside streamed cursor walks.
	writes bool
	// refRate is the read rate (requests/s; for walks, pages/s) at which
	// the read_* latencies are measured, for refShare of the run; the
	// max_read_qps ladder gets the rest.
	refRate  float64
	refShare float64
	// ladder is the fixed rate ladder max_read_qps is chosen from, and
	// limitMS the read p99 every passing rung stays under. The search
	// starts at ladderStart times the capacity the reference phase
	// implies.
	ladder      []float64
	limitMS     float64
	ladderStart float64
	// writeRate is the append rate (appends/s) on write workloads.
	writeRate float64
	// setups is how many times set-up is timed; setup_s is their median.
	setups int
	// replayOps is how many reference-phase operations the traced replay
	// repeats in process: enough requests for stable medians, few enough
	// that the replay's passes fit the run.
	replayOps int
}

const (
	storeRecords = 2500 // DBLP records in the store workload's document
	storeWarm    = 1100 // store warm-up reads: more than the server's 1024-entry cache
	corpusDBLP   = 1500 // DBLP records per corpus DBLP document
	corpusXMark  = 250  // XMark items in the corpus XMark document
	hotSet       = 180  // hot request set size: first pages and their follow-ups
	hotMinNodes  = 100  // fragment nodes on a hot first page, at least
	pageLimit    = 10   // page size of every paged request
	walkMinLCAs  = 11   // walk queries span 2–4 pages on the base data …
	walkMaxLCAs  = 40   // … (11..40 roots at 10 per page)
	maxWalkPages = 8    // a walk that has not ended by then is a failure
	walkPool     = 300  // distinct walk queries
)

// ladderFrom returns n rungs growing geometrically by step from lo.
func ladderFrom(lo, step float64, n int) []float64 {
	out := make([]float64, n)
	r := lo
	for i := range out {
		out[i] = float64(int(r*10+0.5)) / 10
		r *= step
	}
	return out
}

var workloads = []workloadDef{
	{
		name: "store-topk-miss", store: true,
		refRate: 40, refShare: 0.65, ladder: ladderFrom(60, 1.04, 90), limitMS: 100, ladderStart: 0.8, setups: 11, replayOps: 120,
	},
	{
		name:    "corpus-topk-hot",
		refRate: 200, refShare: 0.65, ladder: ladderFrom(150, 1.04, 100), limitMS: 100, ladderStart: 0.95, setups: 5, replayOps: 200,
	},
	{
		name: "corpus-scroll-append", writes: true,
		refRate: 90, refShare: 0.45, ladder: ladderFrom(60, 1.04, 90), limitMS: 250, ladderStart: 0.95, writeRate: 10, setups: 5, replayOps: 90,
	},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// readReq is one search request of the mix. Its URL and its in-process
// xks.Request describe the same search, so a response can be checked
// against a reference search of the request.
type readReq struct {
	q      string
	rank   bool
	slca   bool
	algo   string // "" (validrtf) or "maxmatch"
	limit  int
	offset int // reference window start of a cursor follow-up
	cursor string
	stream bool
}

func (r readReq) key() string {
	return fmt.Sprintf("%s|%t|%t|%s|%d|%d", r.q, r.rank, r.slca, r.algo, r.limit, r.offset)
}

func (r readReq) path() string {
	v := url.Values{}
	v.Set("q", r.q)
	if r.rank {
		v.Set("rank", "1")
	}
	if r.slca {
		v.Set("slca", "1")
	}
	if r.algo != "" {
		v.Set("algo", r.algo)
	}
	if r.limit > 0 {
		v.Set("limit", strconv.Itoa(r.limit))
	}
	if r.cursor != "" {
		v.Set("cursor", r.cursor)
	} else if r.offset > 0 {
		v.Set("offset", strconv.Itoa(r.offset))
	}
	if r.stream {
		v.Set("stream", "1")
	}
	return "/search?" + v.Encode()
}

func (r readReq) request() xks.Request {
	req := xks.Request{Query: r.q, Rank: r.rank, Limit: r.limit, Offset: r.offset}
	if r.slca {
		req.Semantics = xks.SLCAOnly
	}
	if r.algo == "maxmatch" {
		req.Algorithm = xks.MaxMatch
	}
	return req
}

// inputs are the generated data files of one run.
type inputs struct {
	dir       string // corpus directory (corpus workloads)
	storePath string // v3 store file (store workload)
	docs      []string
}

// dataSeed generates every workload's documents. The documents are fixed
// so that runs with different --seed values measure the same data; the
// seed draws the requests and the appended records.
const dataSeed = 1

// genInputs writes the workload's documents under dir.
func genInputs(w workloadDef, dir string) (*inputs, error) {
	seed := int64(dataSeed)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in := &inputs{dir: dir}
	if w.store {
		tree, err := dblpTree(seed, storeRecords)
		if err != nil {
			return nil, err
		}
		in.storePath = filepath.Join(dir, "dblp.xks")
		in.docs = []string{"dblp.xks"}
		return in, store.Shred(tree, analysis.New()).SaveFile(in.storePath)
	}
	for i, name := range []string{"dblp-a.xml", "dblp-b.xml"} {
		tree, err := dblpTree(seed*7+int64(i), corpusDBLP)
		if err != nil {
			return nil, err
		}
		if err := writeTree(filepath.Join(dir, name), tree); err != nil {
			return nil, err
		}
		in.docs = append(in.docs, name)
	}
	specs, err := xmarkTable.Specs(int(workload.XMarkStandard), float64(corpusXMark)/20000)
	if err != nil {
		return nil, err
	}
	tree := datagen.XMark(datagen.XMarkConfig{Seed: seed*7 + 5, Items: corpusXMark, Keywords: specs})
	if err := writeTree(filepath.Join(dir, "xmark.xml"), tree); err != nil {
		return nil, err
	}
	in.docs = append(in.docs, "xmark.xml")
	return in, nil
}

func dblpTree(seed int64, records int) (*xmltree.Tree, error) {
	specs, err := dblpTable.Specs(0, float64(records)/20000)
	if err != nil {
		return nil, err
	}
	return datagen.DBLP(datagen.DBLPConfig{Seed: seed, NumRecords: records, Keywords: specs}), nil
}

func writeTree(path string, t *xmltree.Tree) error {
	var b strings.Builder
	if err := xmltree.WriteXML(&b, t.Root); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// The paper's keyword tables.
var (
	dblpTable  = workload.DBLP()
	xmarkTable = workload.XMark()
)

// keywordQuery draws k distinct keywords of one of the paper's keyword
// tables, in random order.
func keywordQuery(rng *rand.Rand, w workload.Workload, k int) string {
	perm := rng.Perm(len(w.Keywords))[:k]
	words := make([]string, k)
	for i, p := range perm {
		words[i] = w.Keywords[p].Word
	}
	return strings.Join(words, " ")
}

// storeMix draws the store workload's requests: 2–5 distinct DBLP
// keywords, mostly ranked top-10 pages with shares of unranked pages, SLCA
// and MaxMatch, every request distinct so the server's cache misses.
type storeMix struct {
	rng  *rand.Rand
	seen map[string]bool
}

func (m *storeMix) next() readReq {
	for {
		r := readReq{q: keywordQuery(m.rng, dblpTable, 2+m.rng.Intn(4)), rank: true, limit: pageLimit}
		switch m.rng.Intn(10) {
		case 0:
			r.rank = false
		case 1:
			r.slca = true
		case 2:
			r.algo = "maxmatch"
		}
		if !m.seen[r.key()] {
			m.seen[r.key()] = true
			return r
		}
	}
}

// corpusQuery draws a 2–4 keyword query from the DBLP or the XMark table.
func corpusQuery(rng *rand.Rand) string {
	if rng.Intn(2) == 0 {
		return keywordQuery(rng, dblpTable, 2+rng.Intn(3))
	}
	return keywordQuery(rng, xmarkTable, 2+rng.Intn(3))
}

// appendSnippet is the XML of the i-th appended record: two workload
// keywords so reads see the new data, and a unique marker word that the
// visibility check searches for.
func appendSnippet(rng *rand.Rand, doc string, i int) (snippet, marker string) {
	marker = "xkbmark" + letters(i)
	if strings.HasPrefix(doc, "xmark") {
		q := keywordQuery(rng, xmarkTable, 2)
		return fmt.Sprintf("<item><name>%s</name><description><text>%s appended item</text></description></item>", marker, q), marker
	}
	q := keywordQuery(rng, dblpTable, 2)
	return fmt.Sprintf("<article><author>%s</author><title>%s appended record</title><year>2009</year></article>", marker, q), marker
}

// letters spells i in base 26 with letters only: the analyzer drops
// numeric tokens, so markers carry no digits.
func letters(i int) string {
	b := []byte{}
	for {
		b = append(b, byte('a'+i%26))
		i /= 26
		if i == 0 {
			break
		}
	}
	return string(b)
}
