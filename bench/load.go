package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxAnswers bounds the distinct bodies kept per request: one request
// has at most two legitimate answers (sampled, and later the same
// estimate from the surface), so more means the daemon is not
// deterministic.
const maxAnswers = 4

// answer is one distinct 200 body returned for a request, and how many
// times it was returned.
type answer struct {
	body []byte
	n    int
}

// timing is the client-side latency of one measured request.
type timing struct {
	idx  int
	done time.Time // when the answer arrived
	d    time.Duration
}

// tally is what driving a stretch of the sequence collected.
type tally struct {
	attempted int
	failed    int
	reasons   []string // the first few failure reasons
	answers   map[int][]answer
	lat       []timing // measured requests answered with 200
}

func newTally() *tally { return &tally{answers: map[int][]answer{}} }

func (t *tally) fail(n int, format string, args ...any) {
	t.failed += n
	if len(t.reasons) < 5 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// record notes a 200 body for a request key, keeping each distinct body
// once.
func (t *tally) record(key int, body []byte, n int) {
	as := t.answers[key]
	for i := range as {
		if bytes.Equal(as[i].body, body) {
			as[i].n += n
			return
		}
	}
	if len(as) == maxAnswers {
		t.fail(n, "request %d: more than %d distinct answers", key, maxAnswers)
		return
	}
	t.answers[key] = append(as, answer{body: bytes.Clone(body), n: n})
}

func (t *tally) merge(o *tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for _, r := range o.reasons {
		if len(t.reasons) < 5 {
			t.reasons = append(t.reasons, r)
		}
	}
	for k, as := range o.answers {
		for _, a := range as {
			t.record(k, a.body, a.n)
		}
	}
	t.lat = append(t.lat, o.lat...)
}

// verify checks every distinct answer against its golden and counts
// each request that returned a wrong one as failed.
func (t *tally) verify(seq *sequence) {
	keys := make([]int, 0, len(t.answers))
	for k := range t.answers {
		keys = append(keys, k)
	}
	seq.goldensFor(keys)
	for _, k := range keys {
		for _, a := range t.answers[k] {
			if err := check(seq.spec(k), seq.golden(k), a.body); err != nil {
				t.fail(a.n, "request %d: %v", k, err)
			}
		}
	}
}

// clients holds one HTTP client per connection; each keeps a single
// keep-alive connection to the front.
type clients struct {
	base string
	hcs  []*http.Client
}

func newClients(addr string, conns int) *clients {
	c := &clients{base: "http://" + addr}
	for i := 0; i < conns; i++ {
		c.hcs = append(c.hcs, &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * time.Minute,
		})
	}
	return c
}

func (c *clients) close() {
	for _, hc := range c.hcs {
		hc.CloseIdleConnections()
	}
}

// drive sends the sequence from index from on, one closed loop per
// connection: each connection takes the next index, sends it, and waits
// for the answer. It stops at index to when to > 0, and otherwise at
// the first index taken after the deadline. With timed set, every 200
// answer's latency is recorded. It returns once every connection has
// its last answer.
func (c *clients) drive(ctx context.Context, seq *sequence, from, to int, deadline time.Time, timed bool) (*tally, error) {
	var next atomic.Int64
	next.Store(int64(from))
	tallies := make([]*tally, len(c.hcs))
	errs := make([]error, len(c.hcs))
	var wg sync.WaitGroup
	for i, hc := range c.hcs {
		tallies[i] = newTally()
		wg.Add(1)
		go func(t *tally, hc *http.Client, errp *error) {
			defer wg.Done()
			var buf bytes.Buffer
			for ctx.Err() == nil {
				idx := int(next.Add(1)) - 1
				if (to > 0 && idx >= to) || (to <= 0 && time.Now().After(deadline)) {
					return
				}
				key, sp, err := seq.request(idx)
				if err != nil {
					*errp = err
					return
				}
				t.attempted++
				req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+sp.path, bytes.NewReader(sp.raw))
				if err != nil {
					*errp = err
					return
				}
				req.Header.Set("Content-Type", "application/json")
				sent := time.Now()
				resp, err := hc.Do(req)
				if err != nil {
					t.fail(1, "request %d: %v", key, err)
					continue
				}
				buf.Reset()
				_, err = buf.ReadFrom(resp.Body)
				resp.Body.Close()
				done := time.Now()
				d := done.Sub(sent)
				switch {
				case err != nil:
					t.fail(1, "request %d: read answer: %v", key, err)
				case resp.StatusCode != http.StatusOK:
					t.fail(1, "request %d: status %d: %.200s", key, resp.StatusCode, buf.Bytes())
				default:
					t.record(key, buf.Bytes(), 1)
					if timed {
						t.lat = append(t.lat, timing{idx: idx, done: done, d: d})
					}
				}
			}
		}(tallies[i], hc, &errs[i])
	}
	wg.Wait()
	out := newTally()
	for i, t := range tallies {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out.merge(t)
	}
	return out, ctx.Err()
}
