package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"flood/internal/server"
)

// clients is the number of client connections: the benchmark box has two
// cores and the load comes from the same process as the server.
const clients = 2

// serving is a server.Server behind a loopback HTTP listener.
type serving struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
	client *http.Client // the load: at most `clients` connections
	ctl    *http.Client // health and /stats, off the load's connections
	tr     *http.Transport
}

// startServing listens on a loopback port and returns once GET /healthz
// answers.
func startServing(srv *server.Server) (*serving, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	tr := &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients, DisableCompression: true}
	sv := &serving{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{Transport: tr, Timeout: 30 * time.Second},
		ctl:    &http.Client{Transport: &http.Transport{}, Timeout: 30 * time.Second},
		tr:     tr,
	}
	go func() { sv.served <- sv.hs.Serve(ln) }()
	resp, err := sv.ctl.Get(sv.url + "/healthz")
	if err == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	if err != nil {
		sv.close()
		return nil, err
	}
	return sv, nil
}

// close stops the listener, waits for the serve loop to end, and closes
// the server (which checkpoints a durable store).
func (sv *serving) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := sv.hs.Shutdown(ctx)
	if serr := <-sv.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	sv.tr.CloseIdleConnections()
	sv.ctl.CloseIdleConnections()
	if cerr := sv.srv.Close(); err == nil {
		err = cerr
	}
	return err
}

// post sends a JSON body and decodes a JSON reply into out. It returns the
// HTTP status; err is set only when no reply arrived or it did not decode.
func (sv *serving) post(path string, body []byte, out any) (int, error) {
	resp, err := sv.client.Post(sv.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.Unmarshal(b, out)
}

// query runs one floodsql statement.
func (sv *serving) query(sql string) (server.QueryResponse, int, error) {
	body, _ := json.Marshal(server.QueryRequest{SQL: sql})
	var qr server.QueryResponse
	code, err := sv.post("/query", body, &qr)
	return qr, code, err
}

// stats reads GET /stats.
func (sv *serving) stats() (server.Stats, error) {
	var st server.Stats
	resp, err := sv.ctl.Get(sv.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// timing is what the load generator records for one request.
type timing struct {
	due, sent, done time.Time
}

// openLoop issues n requests at a fixed rate over `clients` connections:
// request i is due at start + i/rate whether or not earlier ones have
// finished, and its latency counts from when it was due. do performs
// request i and reports its own bookkeeping.
func openLoop(start time.Time, n int, rate float64, do func(i int, t timing)) {
	var next atomic.Int64
	interval := time.Duration(float64(time.Second) / rate)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				sleepUntil(due)
				t := timing{due: due, sent: time.Now()}
				do(i, t)
			}
		}()
	}
	wg.Wait()
}

// spinAhead is how long before a request is due the generator stops
// sleeping and spins. Waking a sleeping thread takes tens of microseconds
// on an idle VM and more when the host is busy; spinning the last stretch
// keeps that wake-up out of a latency that counts from the due time.
const spinAhead = 200 * time.Microsecond

// sleepUntil waits for t: on the kernel's high-resolution timer until
// spinAhead before it, then by spinning. An idle Go runtime rounds timer
// waits under a millisecond up to a whole one, which would make the
// generator, not the server, decide the open loop's latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t) - spinAhead; d > 0; d = time.Until(t) - spinAhead {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // interrupted: the loop sleeps the rest
	}
	for time.Now().Before(t) {
	}
}

// closedLoop runs `clients` clients back to back for the phase's length;
// each request takes the next index. It returns how many requests
// completed.
func closedLoop(start time.Time, phase time.Duration, first int, do func(i int, t timing)) int {
	var next atomic.Int64
	next.Store(int64(first))
	var done atomic.Int64
	deadline := start.Add(phase)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				now := time.Now()
				do(i, timing{due: now, sent: now})
				done.Add(1)
			}
		}()
	}
	wg.Wait()
	return int(done.Load())
}

// requestSpans records a request's spans: the whole request from when it
// was due, the generator's lag, the HTTP round trip, and inside it the
// server's admission queue and service time as the response reports them.
// It returns whether the tracer was recording.
func requestSpans(tr *tracer, name string, i int, t timing, queue, service time.Duration) bool {
	root := tr.add(name, t.due, t.done, -1, int64(i))
	if root < 0 {
		return false
	}
	tr.add("loadgen.lag", t.due, t.sent, root, int64(i))
	rt := tr.add("http.roundtrip", t.sent, t.done, root, int64(i))
	tr.addDur("server.queue", t.sent, queue, rt, int64(i))
	tr.addDur("server.service", t.sent.Add(queue), service, rt, int64(i))
	return true
}

// serverLayer fills the per-layer metrics read from GET /stats.
func serverLayer(res *result, st server.Stats) {
	res.layer["server.cache_hit_ratio"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
	res.layer["server.batch_avg"] = st.AvgBatch
	res.layer["server.shed"] = float64(st.Shed)
	res.layer["server.timeouts"] = float64(st.Timeouts)
	res.layer["adaptive.merges"] = float64(st.Merges)
	res.layer["adaptive.relearns"] = float64(st.Relearns)
	res.note("server stats: requests %d, cache hits %d misses %d, batches %d (avg %.2f, max %d), shed %d, timeouts %d, errors %d, merges %d, relearns %d",
		st.Requests, st.CacheHits, st.CacheMisses, st.Batches, st.AvgBatch, st.MaxBatch, st.Shed, st.Timeouts, st.Errors, st.Merges, st.Relearns)
}
