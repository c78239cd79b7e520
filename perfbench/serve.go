package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"tiscc/internal/frame"
	"tiscc/internal/noise"
	"tiscc/internal/serve"
)

// serveWorkload drives an in-process estimator service on loopback with a
// closed loop of clients. Each client owns a keep-alive connection and a
// key set disjoint from the others', so every key's first request is
// exactly one cache miss and the rest are hits (a joined in-flight compile
// would report as a hit).
type serveWorkload struct {
	clients    [][]spec
	shots      int // shots per request
	setups     int // server start-ups timed per run (setup_s is their median)
	missEvery  int // a client asks for a new key every missEvery requests
	warmRounds int // fresh servers warmed per run, the last one then run steady
	directRep  int // direct estimates per key in the traced run
}

func memorySpec(d int, model string, p float64) spec {
	return spec{d: d, rounds: d, model: model, p: p, decoded: true}
}

func surgerySpec(d int, model string, p float64) spec {
	return spec{surgery: true, d: d, rounds: d, model: model, p: p, decoded: true}
}

// request is the estimate request a client sends for key k.
func (w serveWorkload) request(s spec, seed int64, client, k int) serve.EstimateRequest {
	workload := serve.WorkloadMemory
	if s.surgery {
		workload = serve.WorkloadSurgery
	}
	return serve.EstimateRequest{Workload: workload, Distance: s.d, Model: s.model, P: s.p,
		Shots: w.shots, Seed: seed*1000 + int64(client)*100 + int64(k), Workers: 1}
}

// serveCalibrators are a serve run's calibrators, made once per run: one
// workers-wide for loop segments and one per client for its misses (the
// first also times start-ups, before the clients run).
type serveCalibrators struct {
	loop    *calibrator
	clients []*calibrator
}

func (w serveWorkload) newCalibrators() (serveCalibrators, error) {
	var cals serveCalibrators
	cal, err := newCalibrator(workers)
	if err != nil {
		return cals, err
	}
	cals.loop = cal
	for range w.clients {
		if cal, err = newCalibrator(1); err != nil {
			cals.release()
			return cals, err
		}
		cals.clients = append(cals.clients, cal)
	}
	return cals, nil
}

func (cals serveCalibrators) release() {
	cals.loop.release()
	for _, c := range cals.clients {
		c.release()
	}
}

// server is one running in-process estimator service.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	addr string
	done chan error
}

func startServer() (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: serve.NewServer(serve.Config{}), addr: ln.Addr().String(), done: make(chan error, 1)}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop shuts the server down and waits for its accept loop to return.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.hs.Shutdown(ctx)
	if serr := <-s.done; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	return err
}

// healthz asks /healthz once on a fresh connection.
func (s *server) healthz() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get("http://" + s.addr + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		return fmt.Errorf("healthz answered %d %q", resp.StatusCode, body)
	}
	return nil
}

// startTimed starts w.setups servers one after the other, each until
// /healthz answers, and keeps the last one running.
func (w serveWorkload) startTimed(cal *calibrator) (*server, []timed, error) {
	var times []timed
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := startServer()
		if err == nil {
			err = s.healthz()
		}
		if err != nil {
			return nil, nil, err
		}
		times = append(times, timed{wall: time.Since(t0), calib: cal.time(false)})
		if i == w.setups-1 {
			return s, times, nil
		}
		if err := s.stop(); err != nil {
			return nil, nil, err
		}
	}
}

// reply is one answered request.
type reply struct {
	client, key int
	segment     int // index of the loop segment it was answered in
	lat         time.Duration
	calib       time.Duration // misses: the one-goroutine calibration run right after
	hit         bool
	steady      bool // answered after every key of every client was warm
	shots       int  // shots served (0 if the request failed)
}

// loopStats is what the closed loop observed.
type loopStats struct {
	replies  []reply
	bodies   [][][]byte // client → key → the miss's response body
	segments []timed    // each segment's wall time and calibration
	steady   int        // index of the first steady segment
}

// segmentLen is how long the clients run between two calibrations. Every
// client finishes the request in flight when a segment ends, then waits
// for the calibration.
const segmentLen = 500 * time.Millisecond

// minHits is the least number of steady-phase hits a loop collects: p99
// needs minBeyond samples beyond it.
const minHits = minBeyond * 100

// maxLoop caps the closed loop when minHits cannot be reached in time.
const maxLoop = 120 * time.Second

// segStart opens segment idx for a client, until end.
type segStart struct {
	idx    int
	end    time.Time
	steady bool
}

// segDone is a client's state at the end of a segment.
type segDone struct {
	allSeen bool // the client has asked for each of its keys
	err     error
}

// loop drives the clients in segments, in two phases. While warming, each
// client asks for a new key every missEvery requests and hits the keys it
// has seen in between, so compiles run beside hits. Once every key of
// every client is warm, the steady phase runs hits only, cycling over each
// client's keys, until secs have passed and minHits steady hits are in; a
// negative secs ends the loop after warming instead. Every response is
// checked.
func (w serveWorkload) loop(s *server, seed int64, secs float64, cals serveCalibrators, r *runResult, tr *tracer, parent int) (*loopStats, error) {
	st := &loopStats{bodies: make([][][]byte, len(w.clients))}
	var (
		mu   sync.Mutex // guards st.replies
		hits atomic.Int64
		wg   sync.WaitGroup
	)
	starts := make([]chan segStart, len(w.clients))
	done := make(chan segDone, len(w.clients))
	for c, keys := range w.clients {
		bodies := make([][]byte, len(keys))
		st.bodies[c] = bodies
		starts[c] = make(chan segStart)
		wg.Add(1)
		go func() {
			defer wg.Done()
			cid, endClient := tr.start(parent, fmt.Sprintf("serve.client%d", c))
			defer endClient()
			transport := &http.Transport{MaxIdleConnsPerHost: 1}
			defer transport.CloseIdleConnections()
			hc := &http.Client{Transport: transport}
			cal := cals.clients[c]
			reqs := make([][]byte, len(keys))
			for k, sp := range keys {
				reqs[k], _ = json.Marshal(w.request(sp, seed, c, k))
			}
			// Keys are asked for in list order; hits cycle over the keys
			// seen so far.
			seen, next, i := 0, 0, 0
			for sg := range starts[c] {
				var err error
				for {
					var k int
					if seen < len(keys) && i%w.missEvery == 0 {
						k = seen
						seen++
					} else {
						k = next % seen
						next++
					}
					i++
					wantHit := bodies[k] != nil
					_, endReq := tr.start(cid, "serve.request")
					t0 := time.Now()
					var resp *http.Response
					var body []byte
					resp, err = hc.Post("http://"+s.addr+"/v1/estimate", "application/json", bytes.NewReader(reqs[k]))
					if err == nil {
						body, err = io.ReadAll(resp.Body)
						resp.Body.Close()
					}
					lat := time.Since(t0)
					endReq()
					if err != nil {
						break
					}
					disposition := resp.Header.Get("X-Tiscc-Cache")
					ok := resp.StatusCode == http.StatusOK
					if !wantHit && ok {
						bodies[k] = body
					}
					if wantHit {
						hits.Add(1)
					}
					rp := reply{client: c, key: k, segment: sg.idx, lat: lat, hit: wantHit, steady: sg.steady}
					if !wantHit {
						rp.calib = cal.time(false)
					}
					if ok {
						rp.shots = w.shots
					}
					mu.Lock()
					st.replies = append(st.replies, rp)
					mu.Unlock()
					want := map[bool]string{false: "miss", true: "hit"}[wantHit]
					r.check(ok && disposition == want && bytes.Equal(body, bodies[k]),
						"client %d key %d: status %d, cache %q (want %q), body identical to the miss: %v",
						c, k, resp.StatusCode, disposition, want, bytes.Equal(body, bodies[k]))
					if !time.Now().Before(sg.end) || !sg.steady && seen == len(keys) {
						break
					}
				}
				done <- segDone{allSeen: seen == len(keys), err: err}
			}
		}()
	}
	var loopErr error
	var steadyStart time.Time
	var steadyHits int64
	st.steady = -1
	for seg := 0; ; seg++ {
		steady := st.steady >= 0
		t0 := time.Now()
		for _, ch := range starts {
			ch <- segStart{idx: seg, end: t0.Add(segmentLen), steady: steady}
		}
		allSeen := true
		for range starts {
			d := <-done
			if loopErr == nil {
				loopErr = d.err
			}
			allSeen = allSeen && d.allSeen
		}
		st.segments = append(st.segments, timed{wall: time.Since(t0), calib: cals.loop.time(true)})
		if loopErr != nil {
			break
		}
		if !steady {
			if allSeen && secs < 0 {
				break
			}
			if allSeen {
				st.steady, steadyStart, steadyHits = seg+1, time.Now(), hits.Load()
			}
			continue
		}
		elapsed := time.Since(steadyStart)
		if elapsed.Seconds() >= secs && hits.Load()-steadyHits >= minHits || elapsed >= maxLoop {
			break
		}
	}
	for _, ch := range starts {
		close(ch)
	}
	wg.Wait()
	if loopErr != nil {
		return nil, loopErr
	}
	misses := 0
	for _, keys := range w.clients {
		misses += len(keys)
	}
	m := s.srv.Metrics()
	r.check(m.Counter("cache_misses") == uint64(misses) && m.Counter("cache_hits") == uint64(hits.Load()),
		"server counted %d misses and %d hits, clients %d and %d",
		m.Counter("cache_misses"), m.Counter("cache_hits"), misses, hits.Load())
	return st, nil
}

// latency is a reply's latency in seconds, normalized by its segment's
// calibration when norm is set (see calib.go).
func (st *loopStats) latency(rp reply, norm bool) float64 {
	if !norm {
		return rp.lat.Seconds()
	}
	return timed{wall: rp.lat, calib: st.segments[rp.segment].calib}.normalized()
}

// steadyHits returns the latencies of the steady phase's hits and the
// shots per second it served.
func (st *loopStats) steadyHits(norm bool) (hits []float64, shotsPerS float64) {
	wall := 0.0
	for _, sg := range st.segments[st.steady:] {
		if norm {
			wall += sg.normalized()
		} else {
			wall += sg.wall.Seconds()
		}
	}
	shots := 0
	for _, rp := range st.replies {
		if rp.steady {
			hits = append(hits, st.latency(rp, norm))
			shots += rp.shots
		}
	}
	return hits, float64(shots) / wall
}

// misses returns the misses, each with the calibration run after it.
func (st *loopStats) misses() []timed {
	var out []timed
	for _, rp := range st.replies {
		if !rp.hit {
			out = append(out, timed{wall: rp.lat, calib: rp.calib})
		}
	}
	return out
}

// servedErrors sums the errors field of every key's response.
func (st *loopStats) servedErrors() ([][]int, int, error) {
	per := make([][]int, len(st.bodies))
	total := 0
	for c, bodies := range st.bodies {
		per[c] = make([]int, len(bodies))
		for k, body := range bodies {
			var resp serve.EstimateResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				return nil, 0, fmt.Errorf("client %d key %d: %w", c, k, err)
			}
			per[c][k] = resp.Result.Errors
			total += resp.Result.Errors
		}
	}
	return per, total, nil
}

// run is the untraced run: timed server start-ups, then warmRounds closed
// loops on fresh servers, the last with a steady phase. Start-ups and
// misses are each paired with a one-goroutine calibration, loop segments
// with a workers-wide one, and the metrics are of normalized times (see
// calib.go).
func (w serveWorkload) run(name string, seed int64, secs float64) (*runResult, error) {
	r := newRunResult()
	cals, err := w.newCalibrators()
	if err != nil {
		return nil, err
	}
	defer cals.release()
	s, setups, err := w.startTimed(cals.clients[0])
	if err != nil {
		return nil, err
	}
	// Each round warms a fresh server; the last one goes on to the steady
	// phase. Every round's misses count toward the mean miss latency.
	var first, st *loopStats
	var misses, segments []timed
	for round := 0; round < w.warmRounds; round++ {
		if round > 0 {
			if s, err = startServer(); err != nil {
				return nil, err
			}
		}
		roundSecs := -1.0
		if round == w.warmRounds-1 {
			roundSecs = secs
		}
		rst, err := w.loop(s, seed, roundSecs, cals, r, nil, 0)
		if serr := s.stop(); err == nil {
			err = serr
		}
		if err != nil {
			return nil, err
		}
		if first == nil {
			first = rst
		}
		for c := range rst.bodies {
			for k := range rst.bodies[c] {
				r.check(bytes.Equal(rst.bodies[c][k], first.bodies[c][k]),
					"client %d key %d: round %d answered differently from round 0", c, k, round)
			}
		}
		misses = append(misses, rst.misses()...)
		segments = append(segments, rst.segments...)
		st = rst
	}
	_, errs, err := st.servedErrors()
	if err != nil {
		return nil, err
	}
	r.checkErr(checkPinned(pinnedValues, name, seed, errs, -1))
	hits, shotsPerS := st.steadyHits(true)
	wallHits, _ := st.steadyHits(false)
	p99, err := percentile(hits, 99)
	if err != nil {
		return nil, fmt.Errorf("hit latency: %w", err)
	}
	r.metric("setup_s", median(normalizedAll(setups)))
	// Each key misses once per round, so the misses are a fixed mix of
	// distinct compiles: their mean is the steady figure, their median
	// jumps between key sizes.
	r.metric("time_to_result_s", mean(normalizedAll(misses)))
	r.metric("shots_per_s", shotsPerS)
	r.metric("hit_p50_ms", median(hits)*1000)
	r.metric("peak_rss_mb", programRSSMB())
	r.note("hit_p99_ms", p99*1000, "ms")
	r.note("miss_p50_ms", median(normalizedAll(misses))*1000, "ms")
	r.note("req_per_s", shotsPerS/float64(w.shots), "1/s")
	r.note("wall_setup_s", median(walls(setups)), "s")
	r.note("wall_miss_mean_ms", mean(walls(misses))*1000, "ms")
	r.note("wall_hit_p50_ms", median(wallHits)*1000, "ms")
	r.note("calib_ms", median(calibs(segments))*1000, "ms")
	r.note("hits", float64(len(hits)), "count")
	r.note("misses", float64(len(misses)), "count")
	r.note("errors", float64(errs), "count")
	return r, nil
}

// keyLayers is what the traced run measures for one key off the server.
type keyLayers struct {
	compile, encode, decode time.Duration
	bytes                   int
	direct                  float64 // median direct-estimate seconds
	weight                  uint64  // syndrome weight of one direct estimate
}

// trace is the traced run: one server start-up, the same closed loop with
// a span per request, then for every key, off the server and with one
// goroutine per client as in the loop: serve.CompileArtifact, the bundle's
// wire encode and decode, the compile layers one by one, and direct
// estimates (frame.New plus noise.EstimateLogicalError, as a request
// makes them) for the request overhead.
func (w serveWorkload) trace(name string, seed int64, secs float64, tr *tracer) (*runResult, error) {
	r := newRunResult()
	cals, err := w.newCalibrators()
	if err != nil {
		return nil, err
	}
	defer cals.release()
	root, endRoot := tr.start(0, "run")
	defer endRoot()
	_, endSetup := tr.start(root, "serve.setup")
	s, err := startServer()
	if err == nil {
		err = s.healthz()
	}
	endSetup()
	if err != nil {
		return nil, err
	}
	lid, endLoop := tr.start(root, "serve.loop")
	st, err := w.loop(s, seed, secs, cals, r, tr, lid)
	endLoop()
	m := s.srv.Metrics()
	if serr := s.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	served, errs, err := st.servedErrors()
	if err != nil {
		return nil, err
	}

	iid, endIso := tr.start(root, "serve.isolated")
	layers := make([][]keyLayers, len(w.clients))
	errc := make(chan error, len(w.clients))
	var wg sync.WaitGroup
	for c, keys := range w.clients {
		layers[c] = make([]keyLayers, len(keys))
		wg.Add(1)
		go func() {
			defer wg.Done()
			errc <- w.isolate(c, keys, seed, served[c], layers[c], r, tr, iid)
		}()
	}
	wg.Wait()
	endIso()
	close(errc)
	for err := range errc {
		if err != nil {
			return nil, err
		}
	}

	var compileS, encode, decode time.Duration
	var bundleBytes int
	var weight uint64
	direct := map[[2]int]float64{}
	for c := range layers {
		for k, kl := range layers[c] {
			compileS += kl.compile
			encode += kl.encode
			decode += kl.decode
			bundleBytes += kl.bytes
			weight += kl.weight
			direct[[2]int{c, k}] = kl.direct
		}
	}
	r.checkErr(checkPinned(pinnedValues, name, seed, errs, int(weight)))
	hits, _ := st.steadyHits(false)
	misses := walls(st.misses())
	var overhead []float64
	for _, rp := range st.replies {
		if rp.steady {
			overhead = append(overhead, rp.lat.Seconds()-direct[[2]int{rp.client, rp.key}])
		}
	}
	n := float64(len(misses))
	missTotal := 0.0
	for _, x := range misses {
		missTotal += x
	}
	// Compile-path layers: mean seconds per miss, and their share of the
	// summed miss latency.
	perMiss := func(metric string, secs float64) {
		r.layer(metric+"_s", secs/n)
		r.layer(metric+"_share", secs/missTotal)
	}
	perMiss("serve.compile_artifact", compileS.Seconds())
	for _, l := range setupLayers[:4] {
		perMiss(l, tr.total(l))
	}
	r.layer("wire.encode_bundle_ms", encode.Seconds()*1000/n)
	r.layer("wire.decode_bundle_ms", decode.Seconds()*1000/n)
	r.layer("wire.encode_bundle_share", encode.Seconds()/missTotal)
	r.layer("wire.decode_bundle_share", decode.Seconds()/missTotal)
	r.layer("wire.bundle_bytes", float64(bundleBytes)/n)
	r.layer("serve.misses", float64(m.Counter("cache_misses")))
	r.layer("serve.hits", float64(m.Counter("cache_hits")))
	r.layer("serve.request_overhead_ms", median(overhead)*1000)
	r.note("hit_p50_ms", median(hits)*1000, "ms")
	r.note("miss_p50_ms", median(misses)*1000, "ms")
	r.note("errors", float64(errs), "count")
	return r, nil
}

// isolate measures one client's keys off the server (see trace).
func (w serveWorkload) isolate(c int, keys []spec, seed int64, served []int, out []keyLayers, r *runResult, tr *tracer, parent int) error {
	cid, endClient := tr.start(parent, fmt.Sprintf("serve.client%d", c))
	defer endClient()
	for k, sp := range keys {
		req := w.request(sp, seed, c, k)
		kid, endKey := tr.start(cid, "serve.key")
		kl := &out[k]
		_, end := tr.start(kid, "serve.compile_artifact")
		t0 := time.Now()
		art, err := serve.CompileArtifact(serve.Key{Workload: req.Workload, Distance: req.Distance,
			Model: req.Model, P: req.P}.Normalize())
		kl.compile = time.Since(t0)
		end()
		if err != nil {
			endKey()
			return err
		}
		_, end = tr.start(kid, "wire.encode_bundle")
		t0 = time.Now()
		bundle := serve.EncodeBundle(art)
		kl.encode = time.Since(t0)
		end()
		_, end = tr.start(kid, "wire.decode_bundle")
		t0 = time.Now()
		_, err = serve.DecodeBundle(bundle)
		kl.decode = time.Since(t0)
		end()
		kl.bytes = len(bundle)
		if err != nil {
			endKey()
			return err
		}
		if _, err := compile(sp, tr, kid); err != nil {
			endKey()
			return err
		}
		var lat []float64
		var res noise.Result
		for i := 0; i < w.directRep; i++ {
			_, end = tr.start(kid, "serve.direct_estimate")
			t0 = time.Now()
			sim, err := frame.New(art.Prog, art.Sched)
			if err == nil {
				res, err = noise.EstimateLogicalError(art.Sched, art.Outcome, art.Reference, noise.Options{
					Shots: req.Shots, Seed: req.Seed, Workers: req.Workers, Decoder: art.Graph, Sampler: sim})
			}
			lat = append(lat, time.Since(t0).Seconds())
			end()
			if err != nil {
				endKey()
				return err
			}
		}
		endKey()
		kl.direct = median(lat)
		kl.weight = art.Graph.Metrics().Counter("defects") / uint64(w.directRep)
		r.check(res.Errors == served[k], "client %d key %d: direct estimate %d errors, served %d", c, k, res.Errors, served[k])
	}
	return nil
}
