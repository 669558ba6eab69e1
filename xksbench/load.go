package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

type opKind int

const (
	opRead   opKind = iota // one buffered search
	opWalk                 // a stream=1 cursor walk, page after page
	opAppend               // POST /append
)

// op is one scheduled operation of an open-loop phase.
type op struct {
	kind opKind
	read readReq
	// ref indexes the reference a read is checked against (-1: none).
	ref int
	// doc, snippet and marker describe an append.
	doc, snippet, marker string
	// due is the operation's send time, as an offset from the phase start.
	due time.Duration
}

// fragKey is the part of a returned fragment the output checks compare.
type fragKey struct {
	doc, root string
	nodes     int
}

// page is one HTTP response of a read.
type page struct {
	frags   []fragKey
	cursor  string
	numLcas int
	// latency and ttfb are measured from when the page was due (see
	// runPhase for the generator's own lateness).
	latency, ttfb time.Duration
}

// opResult is the outcome of one operation.
type opResult struct {
	op      *op
	pages   []page
	write   time.Duration // append acknowledgement latency, timed like a page
	failed  string        // non-empty: why the operation failed
	lag     time.Duration // generator lateness sending the first request
	backlog int           // due operations not yet started when this one was
}

// client is the benchmark's HTTP side: one transport capped at conns
// connections, shared by conns workers.
type client struct {
	base  string
	http  *http.Client
	conns int
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, http: &http.Client{Transport: tr, Timeout: 30 * time.Second}, conns: conns}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// runPhase drives ops open-loop: each starts at its due offset after the
// phase start (or as soon as a connection frees up, if later). Ops due at
// or after dur are never started, and none is started once the phase has
// overrun dur by half (the generator's backlog did not drain). Results
// come back in ops order; unstarted ops are dropped.
func (c *client) runPhase(ops []op, dur time.Duration) []opResult {
	results := make([]opResult, len(ops))
	started := make([]bool, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < c.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 0, 1<<20)
			for {
				i := int(next.Add(1) - 1)
				picked := time.Since(start)
				if i >= len(ops) || ops[i].due >= dur || picked > dur+dur/2 {
					return
				}
				o := &ops[i]
				if wait := o.due - picked; wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Since(start)
				r := opResult{op: o, lag: sent - max(o.due, picked)}
				// Ops due by now but not yet picked: the generator's backlog.
				r.backlog = max(0, sort.Search(len(ops), func(j int) bool { return ops[j].due > picked })-i-1)
				// Latency counts from when the op was due, plus the lag:
				// the generator's own lateness in sending it on a free
				// connection (timer oversleep of up to a millisecond, or
				// the generator descheduled) is not the server's doing and
				// is reported on its own. Waiting for a busy connection
				// still counts.
				buf = c.do(o, start.Add(o.due+r.lag), &r, buf)
				results[i] = r
				started[i] = true
			}
		}()
	}
	wg.Wait()
	out := results[:0]
	for i, r := range results {
		if started[i] {
			out = append(out, r)
		}
	}
	return out
}

// do performs one operation, filling r; buf is the worker's body buffer.
func (c *client) do(o *op, due time.Time, r *opResult, buf []byte) []byte {
	switch o.kind {
	case opAppend:
		body, _ := json.Marshal(map[string]string{"doc": o.doc, "parent": "0", "xml": o.snippet})
		resp, err := c.http.Post(c.base+"/append", "application/json", bytes.NewReader(body))
		if err != nil {
			r.failed = "append: " + err.Error()
			return buf
		}
		buf, err = readAll(resp.Body, buf[:0], nil)
		resp.Body.Close()
		r.write = time.Since(due)
		if err != nil || resp.StatusCode != http.StatusOK || !bytes.Contains(buf, []byte(`"ok":true`)) {
			r.failed = fmt.Sprintf("append: status %d: %.200s", resp.StatusCode, buf)
		}
		return buf
	case opWalk:
		req := o.read
		for p := 0; ; p++ {
			if p == maxWalkPages {
				r.failed = "walk: result set not exhausted after max pages"
				return buf
			}
			var pg page
			buf, pg, r.failed = c.get(req.path(), true, due, buf)
			if r.failed != "" {
				return buf
			}
			r.pages = append(r.pages, pg)
			if pg.cursor == "" {
				return buf
			}
			req.cursor = pg.cursor
			due = time.Now()
		}
	default:
		var pg page
		buf, pg, r.failed = c.get(o.read.path(), o.read.stream, due, buf)
		if r.failed == "" {
			r.pages = append(r.pages, pg)
		}
		return buf
	}
}

// get fetches one search page. For stream=1 the time to first byte is the
// arrival of the first complete NDJSON line; otherwise the first response
// byte.
func (c *client) get(path string, stream bool, due time.Time, buf []byte) ([]byte, page, string) {
	var pg page
	var first time.Time
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return buf, pg, err.Error()
	}
	if !stream {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotFirstResponseByte: func() { first = time.Now() },
		}))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return buf, pg, "transport: " + err.Error()
	}
	var onLine func()
	if stream {
		onLine = func() { first = time.Now() }
	}
	buf, err = readAll(resp.Body, buf[:0], onLine)
	resp.Body.Close()
	pg.latency = time.Since(due)
	if err != nil {
		return buf, pg, "read body: " + err.Error()
	}
	pg.ttfb = first.Sub(due)
	if resp.StatusCode != http.StatusOK {
		return buf, pg, fmt.Sprintf("status %d: %.200s", resp.StatusCode, buf)
	}
	var bad string
	pg.frags, pg.cursor, pg.numLcas, bad = scanResponse(buf)
	return buf, pg, bad
}

// readAll reads r to EOF into buf, calling onLine once when the first
// newline arrives.
func readAll(r io.Reader, buf []byte, onLine func()) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		if onLine != nil && bytes.IndexByte(buf[len(buf):len(buf)+n], '\n') >= 0 {
			onLine()
			onLine = nil
		}
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

var (
	keyDocument  = []byte(`{"document":"`)
	keyRootAfter = []byte(`,"root":"`)
	keyNodes     = []byte(`"nodes":`)
	keyCursor    = []byte(`"cursor":"`)
	keyNumLcas   = []byte(`"numLcas":`)
	keyError     = []byte(`"error":"`)
	keyTruncated = []byte(`"truncated":true`)
)

// scanResponse pulls the checked fields out of a buffered JSON or NDJSON
// search response without decoding it: the generator shares the CPUs with
// the server, and decoding large bodies would throttle the load. Key
// patterns that start with a quote cannot occur inside JSON string values
// (their quotes are escaped), so each match is a real key.
func scanResponse(b []byte) (frags []fragKey, cursor string, numLcas int, bad string) {
	if bytes.Contains(b, keyTruncated) {
		return nil, "", 0, "truncated response"
	}
	if i := bytes.Index(b, keyError); i >= 0 {
		return nil, "", 0, "stream error: " + string(b[i:min(len(b), i+200)])
	}
	i := bytes.Index(b, keyNumLcas)
	if i < 0 {
		return nil, "", 0, "no numLcas in response"
	}
	numLcas, _ = atoiPrefix(b[i+len(keyNumLcas):])
	if i := bytes.Index(b, keyCursor); i >= 0 {
		cursor, _ = quoted(b[i+len(keyCursor):])
	}
	for pos := 0; ; {
		i := bytes.Index(b[pos:], keyDocument)
		if i < 0 {
			break
		}
		pos += i + len(keyDocument)
		var f fragKey
		var n int
		f.doc, n = quoted(b[pos:])
		pos += n
		if !bytes.HasPrefix(b[pos:], keyRootAfter) {
			return nil, "", 0, "unexpected fragment layout"
		}
		pos += len(keyRootAfter)
		f.root, n = quoted(b[pos:])
		pos += n
		j := bytes.Index(b[pos:], keyNodes)
		if j < 0 {
			return nil, "", 0, "fragment without nodes"
		}
		pos += j + len(keyNodes)
		f.nodes, n = atoiPrefix(b[pos:])
		pos += n
		frags = append(frags, f)
	}
	return frags, cursor, numLcas, ""
}

// quoted returns the JSON string body up to the closing quote (the fields
// it reads hold no escapes) and how many bytes it consumed.
func quoted(b []byte) (string, int) {
	j := bytes.IndexByte(b, '"')
	if j < 0 {
		return string(b), len(b)
	}
	return string(b[:j]), j + 1
}

func atoiPrefix(b []byte) (int, int) {
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	n, _ := strconv.Atoi(string(b[:j]))
	return n, j
}
