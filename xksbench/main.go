// Command xksbench is the repository's benchmark: one command per workload
// and seed that launches a real xkserver built from the tree, drives it
// over loopback HTTP from a single open-loop generator with at most two
// connections, checks every output against an in-process reference, and
// prints the end-to-end metrics (or, with --trace 1, the per-layer metrics
// of an in-process traced replay of the same requests) as the last line of
// standard output. NOTES.md describes the workloads and metrics.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash xksbench/run.sh --workload corpus-topk-hot --seed 3 --seconds 45 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"xks"
	"xks/internal/service"
)

// conns is the generator's connection cap: nproc of the reference machine
// (2 vCPUs), so the generator never offers more concurrency than the
// server has cores.
const conns = 2

type config struct {
	w       workloadDef
	seed    int64
	seconds int
	trace   bool
	server  string
	dir     string
}

// metric is one printed metric value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// A reference phase is discarded when the generator sent late: its lag
// p99 exceeded maxLagMS or due operations were never sent. After
// maxAttempts discarded phases the run fails with errDiscard.
const (
	maxLagMS    = 20
	maxAttempts = 3
)

// The max_read_qps search probes ladderProbes rungs once one has passed
// (twice as many while none has); each probe draws its reads from its own
// fixed segment of probeSegReads reads.
const (
	ladderProbes  = 3
	probeSegReads = 3000
)

var errDiscard = errors.New("generator fell behind at the reference rate in every attempt; run discarded")

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		traceF  = flag.Int("trace", 0, "1: print per-layer metrics from a traced in-process replay")
		srv     = flag.String("server", "", "xkserver binary")
		work    = flag.String("work", ".bench_build", "directory for run data")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *srv == "" || *seconds < 1 {
		fatal(errors.New("need -server and --seconds >= 1"))
	}
	dir, err := os.MkdirTemp(*work, "run-"+w.name+"-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *traceF == 1, server: *srv, dir: dir}
	res, err := run(cfg)
	if err != nil {
		os.RemoveAll(dir)
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "xksbench: %d of %d operations failed their checks\n", res.Failed, res.Attempted)
		os.RemoveAll(dir)
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "xksbench:", err)
	os.Exit(2)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "xksbench: "+format+"\n", args...)
}

// run is one benchmark run: inputs, set-up, load phases, checks, metrics.
func run(cfg config) (*result, error) {
	w := cfg.w
	in, err := genInputs(w, filepath.Join(cfg.dir, "data"))
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	ref, closeRef, err := openReference(w, in)
	if err != nil {
		return nil, fmt.Errorf("opening the in-process reference: %w", err)
	}
	defer closeRef()

	plan, err := newOpPlan(w, cfg.seed, ref, in)
	if err != nil {
		return nil, err
	}

	// Set-up: exec to first healthy /healthz, timed w.setups times; the last
	// server stays up for the load.
	var setups []float64
	var srv *server
	for i := 0; i < w.setups; i++ {
		s, d, err := startServer(cfg.server, serverArgs(w, in), filepath.Join(cfg.dir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		if i < w.setups-1 {
			s.stop()
		} else {
			srv = s
		}
	}
	defer srv.stop()
	c := newClient(srv.base, conns)
	defer c.close()

	var all []opResult
	all = append(all, plan.warmup(c)...)
	before, err := srv.scrapeMetrics()
	if err != nil {
		return nil, err
	}

	total := time.Duration(cfg.seconds) * time.Second
	refDur := time.Duration(float64(total) * w.refShare)
	var refRes []opResult
	var cpu0, cpu1, lagP99 float64
	var backlogMax int
	// A reference phase in which the generator fell behind measures the
	// generator, not the server: it is discarded, reported, and run again.
	for attempt := 1; ; attempt++ {
		refOps := plan.phase(w.refRate, refDur)
		plan.refOps = refOps
		if cpu0, err = srv.cpuSeconds(); err != nil {
			return nil, err
		}
		refRes = c.runPhase(refOps, refDur)
		if cpu1, err = srv.cpuSeconds(); err != nil {
			return nil, err
		}
		all = append(all, refRes...)
		lagP99, backlogMax = generatorLag(refRes)
		unsent := countDue(refOps, refDur) - len(refRes)
		if unsent == 0 && lagP99 <= maxLagMS {
			break
		}
		logf("reference phase %d discarded: generator lag p99 %.2fms, backlog max %d, unsent %d", attempt, lagP99, backlogMax, unsent)
		if attempt == maxAttempts {
			return nil, errDiscard
		}
	}

	reads, writes, ttfb := latencies(refRes)
	completed := 0
	for _, r := range refRes {
		completed += len(r.pages)
		if r.op.kind == opAppend {
			completed++
		}
	}
	var maxQPS float64
	if !cfg.trace {
		var probes []opResult
		// Start the ladder at the workload's share of the capacity the
		// reference phase implies (both connections busy back to back at
		// the median latency, or both cores busy with the server's CPU
		// per operation), where its latency limit is usually crossed, so
		// the few long probes resolve the limit to one rung.
		cpuPerOp := (cpu1 - cpu0) / float64(max(completed, 1))
		p50 := median(append([]float64(nil), reads...))
		estimate := math.Min(conns/math.Max(cpuPerOp, 1e-6), conns/math.Max(p50/1000, 1e-6))
		maxQPS, probes = ladder(c, plan, w, total-refDur, w.ladderStart*estimate)
		all = append(all, probes...)
	}
	after, err := srv.scrapeMetrics()
	if err != nil {
		return nil, err
	}
	all = append(all, plan.finalChecks(c, after, all)...)
	rss, err := srv.rssPeakMB()
	if err != nil {
		return nil, err
	}
	srv.stop()

	if err := plan.check(all); err != nil {
		return nil, err
	}
	failures, attempted := 0, 0
	for _, r := range all {
		attempted++
		if r.failed != "" {
			failures++
			if failures <= 5 {
				logf("failed: %s", r.failed)
			}
		}
	}
	res := &result{Attempted: attempted, Failed: failures, Metrics: map[string]metric{}}

	if len(reads) < 1000 {
		logf("only %d reads at the reference rate; read_p99_ms rests on fewer than 10 samples above it", len(reads))
	}
	if !cfg.trace {
		m := res.Metrics
		m["setup_s"] = metric{median(setups), "s"}
		m["read_p50_ms"] = metric{windowed(reads, 0.5, 1000), "ms"}
		m["read_p99_ms"] = metric{windowed(reads, 0.99, 1000), "ms"}
		m["read_ttfb_p50_ms"] = metric{windowed(ttfb, 0.5, 1000), "ms"}
		m["max_read_qps"] = metric{maxQPS, "1/s"}
		m["server_cpu_ms_per_op"] = metric{(cpu1 - cpu0) * 1000 / float64(max(completed, 1)), "ms"}
		m["server_rss_peak_mb"] = metric{rss, "MiB"}
	} else {
		m := res.Metrics
		m["write_p50_ms"] = metric{zeroNaN(median(writes)), "ms"}
		m["write_p99_ms"] = metric{zeroNaN(quantile(writes, 0.99)), "ms"}
		m["failed_ratio"] = metric{float64(failures) / float64(attempted), "ratio"}
		m["client.lag_p99_ms"] = metric{lagP99, "ms"}
		m["client.backlog_max"] = metric{float64(backlogMax), "count"}
		delta := func(k string) float64 { return after[k] - before[k] }
		served := delta("xks_requests_total")
		m["service.hit_ratio"] = metric{delta("xks_cache_hits_total") / math.Max(1, served), "ratio"}
		m["service.collapsed"] = metric{delta("xks_collapsed_requests_total"), "count"}
		admitted := delta("xks_admission_admitted_total")
		shed := delta(`xks_admission_shed_total{reason="queue-full"}`) + delta(`xks_admission_shed_total{reason="queue-timeout"}`) + delta(`xks_admission_shed_total{reason="draining"}`)
		m["admission.queued_ratio"] = metric{delta("xks_admission_queued_total") / math.Max(1, admitted+shed), "ratio"}
		m["admission.shed_ratio"] = metric{shed / math.Max(1, admitted+shed), "ratio"}
		m["delta.snapshots_pinned_end"] = metric{after["xks_snapshots_pinned"], "count"}
		replayFailures, err := replayLayers(cfg, plan, in, m)
		if err != nil {
			return nil, fmt.Errorf("traced replay: %w", err)
		}
		res.Attempted++
		if replayFailures != "" {
			logf("traced replay: %s", replayFailures)
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func zeroNaN(x float64) float64 {
	if math.IsNaN(x) {
		return 0
	}
	return x
}

// failedMS is the latency a failed read counts with: the client's
// timeout, so it misses every latency limit.
const failedMS = 30000

// latencies splits a phase's results into read page latencies, append
// latencies and read times to first byte, in milliseconds; failed
// operations count as reads of failedMS.
func latencies(rs []opResult) (reads, writes, ttfb []float64) {
	for _, r := range rs {
		if r.op.kind == opAppend {
			if r.failed == "" {
				writes = append(writes, ms(r.write))
			}
			continue
		}
		for _, p := range r.pages {
			reads = append(reads, ms(p.latency))
			ttfb = append(ttfb, ms(p.ttfb))
		}
		if r.failed != "" {
			reads = append(reads, failedMS)
		}
	}
	return reads, writes, ttfb
}

func generatorLag(rs []opResult) (p99 float64, backlog int) {
	var lags []float64
	for _, r := range rs {
		lags = append(lags, ms(r.lag))
		backlog = max(backlog, r.backlog)
	}
	return zeroNaN(quantile(lags, 0.99)), backlog
}

func countDue(ops []op, dur time.Duration) int {
	return sort.Search(len(ops), func(i int) bool { return ops[i].due >= dur })
}

// ladder finds max_read_qps: the highest rung of the workload's fixed
// ladder at which read p99 (failures counting as misses) stays under the
// latency limit and the generator's backlog does not grow. A probe's p99
// is taken like read_p99_ms, as the median over consecutive windows
// (here of at least probeWindow reads), so one burst of host noise does
// not fail a rung the server sustains. The first probe runs at the
// highest rung at or below start. The search moves two rungs up after a
// pass and two down after a failure until the outcome first changes, then
// one rung at a time. It stops after ladderProbes probes once a rung has
// passed (twice as many while none has), or when the highest passing
// rung sits right below the lowest failing one, and reports the highest
// passing rung.
func ladder(c *client, plan *opPlan, w workloadDef, budget time.Duration, start float64) (float64, []opResult) {
	const probeWindow = 250
	probeDur := budget / ladderProbes
	var all []opResult
	i := sort.SearchFloat64s(w.ladder, start*1.0001) - 1
	i = max(0, min(i, len(w.ladder)-1))
	best, lowestFail, step := -1, len(w.ladder), 2
	for p := 0; p < ladderProbes || (best < 0 && p < 2*ladderProbes); p++ {
		rate := w.ladder[i]
		ops := plan.probe(p, rate, probeDur)
		rs := c.runPhase(ops, probeDur)
		all = append(all, rs...)
		reads, _, _ := latencies(rs)
		p99 := windowed(reads, 0.99, probeWindow)
		unsent := countDue(ops, probeDur) - len(rs)
		last := 0
		if len(rs) > 0 {
			last = rs[len(rs)-1].backlog
		}
		pass := p99 <= w.limitMS && unsent == 0 && last <= conns
		logf("ladder %.1f/s: p99 %.1fms, final backlog %d, unsent %d, pass %t", rate, p99, last, unsent, pass)
		if pass {
			if p > 0 && best < 0 {
				step = 1
			}
			best = max(best, i)
			if i+1 >= lowestFail || i+1 == len(w.ladder) {
				break
			}
			i = min(i+step, lowestFail-1, len(w.ladder)-1)
			continue
		}
		if p > 0 && lowestFail == len(w.ladder) {
			step = 1
		}
		lowestFail = min(lowestFail, i)
		if best == i-1 || i == 0 {
			break
		}
		i = max(i-step, best+1, 0)
	}
	if best < 0 {
		logf("no ladder rung passed down to %.1f/s; reporting half the lowest rung", w.ladder[lowestFail])
		return w.ladder[0] / 2, all
	}
	return w.ladder[best], all
}

func openReference(w workloadDef, in *inputs) (service.Searcher, func(), error) {
	if w.store {
		e, err := xks.OpenStoreMode(in.storePath, xks.StoreMmap)
		if err != nil {
			return nil, nil, err
		}
		return service.SingleDoc{Name: in.docs[0], Engine: e}, func() { e.Close() }, nil
	}
	c, err := xks.LoadDir(in.dir)
	if err != nil {
		return nil, nil, err
	}
	return c, func() {}, nil
}

// refKeys runs the reference search of req and returns its fragment list.
func refKeys(ref service.Searcher, req xks.Request) ([]fragKey, int, error) {
	res, err := ref.Search(context.Background(), req)
	if err != nil {
		return nil, 0, err
	}
	out := make([]fragKey, len(res.Fragments))
	for i, f := range res.Fragments {
		out[i] = fragKey{doc: f.Document, root: f.Root, nodes: f.Len()}
	}
	return out, res.Stats.NumLCAs, nil
}

// parallelRefs computes the reference fragment lists of reqs on conns
// goroutines.
func parallelRefs(ref service.Searcher, reqs []xks.Request) ([][]fragKey, []int, error) {
	keys := make([][]fragKey, len(reqs))
	lcas := make([]int, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(reqs); i += conns {
				keys[i], lcas[i], errs[i] = refKeys(ref, reqs[i])
			}
		}(g)
	}
	wg.Wait()
	return keys, lcas, errors.Join(errs...)
}

func sameKeys(a, b []fragKey) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func describeKeys(ks []fragKey) string {
	var b strings.Builder
	for i, k := range ks {
		if i == 3 {
			b.WriteString(" …")
			break
		}
		fmt.Fprintf(&b, " %s:%s/%d", k.doc, k.root, k.nodes)
	}
	return b.String()
}
