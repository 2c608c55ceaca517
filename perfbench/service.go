package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/difftest"
	"repro/internal/programs"
	"repro/internal/server"
	"repro/internal/tags"
)

// service is one in-process tagsimd behind a loopback listener, and the
// closed-loop clients' connection pool.
type service struct {
	srv    *server.Server
	hs     *http.Server
	served chan struct{} // closed when Serve has returned
	url    string
	client *http.Client
}

// startService starts a fresh server — empty result and image caches — and
// opens one keep-alive connection per client, so measured requests never
// dial. On a traced run the handler is wrapped so that traced passes can
// record spans around ServeHTTP.
func (b *bench) startService() (*service, error) {
	srv := server.New(server.Options{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var h http.Handler = srv
	if b.opt.trace {
		h = b.tr.wrapHandler(srv)
	}
	s := &service{
		srv:    srv,
		hs:     &http.Server{Handler: h},
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: loadConcurrency,
			DisableCompression:  true,
		}},
	}
	go func() {
		defer close(s.served)
		s.hs.Serve(ln) //nolint:errcheck // always ErrServerClosed, after close
	}()
	errs := make(chan error, loadConcurrency)
	for c := 0; c < loadConcurrency; c++ {
		go func() {
			resp, err := s.client.Get(s.url + "/healthz")
			if err == nil {
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
				}
			}
			errs <- err
		}()
	}
	var first error
	for c := 0; c < loadConcurrency; c++ {
		first = errors.Join(first, <-errs)
	}
	if first != nil {
		s.close()
		return nil, first
	}
	return s, nil
}

func (s *service) close() {
	s.hs.Close() //nolint:errcheck // only the listener's close error, which ends Serve either way
	<-s.served
	s.client.CloseIdleConnections()
}

// post sends one /v1/run body and reads the whole reply into buf.
func (s *service) post(body []byte, id int64, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.url+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", strconv.FormatInt(id, 10))
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// drive sends bodies from loadConcurrency closed-loop clients — each sends
// its next request only when the previous reply has been read — and has
// check judge every reply; check must be safe for concurrent calls on
// distinct indices. It returns each request's round-trip time and the
// reply bytes received. On a traced pass each round trip is a span under
// parent, and the server's handler spans are recorded beneath them.
func (b *bench) drive(s *service, bodies [][]byte, parent int64, check func(i, status int, body []byte) error) ([]time.Duration, int64) {
	traced := parent != 0
	if traced {
		b.tr.on.Store(true)
		defer b.tr.on.Store(false)
	}
	lat := make([]time.Duration, len(bodies))
	var next, received atomic.Int64
	var mu sync.Mutex // guards b's failure tally
	var wg sync.WaitGroup
	for c := 0; c < loadConcurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				id := b.tr.newID()
				t0 := time.Now()
				status, err := s.post(bodies[i], id, &buf)
				t1 := time.Now()
				lat[i] = t1.Sub(t0)
				received.Add(int64(buf.Len()))
				if traced {
					b.tr.record("client.roundtrip", id, parent, strconv.FormatInt(id, 10), t0, t1)
				}
				if err == nil {
					err = check(i, status, buf.Bytes())
				}
				if err != nil {
					mu.Lock()
					b.fail("%v", err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return lat, received.Load()
}

// serviceLayers closes the account of a traced service pass. Its total is
// the clients' round-trip time; the handler spans inside it are split into
// the server's own work, the admission queue and the runner (hits, and
// misses by phase) from the exported histograms.
func (b *bench) serviceLayers(mark int, root int64, reg regDelta, host0 hostSample, t0, t1 time.Time, requests int, received int64) {
	b.tr.record("service.pass", root, 0, "", t0, t1)
	total := b.tr.total(mark, "client.roundtrip").Seconds()
	handler := b.tr.total(mark, "server.handler").Seconds()
	queue, _ := reg.hist("http_queue_wait_seconds", "")
	pass := runnerLayers(reg)
	pass["handler"] = handler
	pass["client.transport"] = total - handler
	pass["server.queue_wait"] = queue
	pass["server.self"] = handler - queue - pass["core.hit"] - pass["miss"]
	pass["requests"] = float64(requests)
	pass["resp_bytes"] = float64(received)
	addHost(pass, host0, readHost())
	b.layers.close(b, total, pass)
}

// servicePass times one closed-loop stream of bodies against s, with the
// per-layer split when traced.
func (b *bench) servicePass(s *service, bodies [][]byte, traced bool, check func(i, status int, body []byte) error) (time.Duration, []time.Duration) {
	var root int64
	var mark int
	var reg regDelta
	var host0 hostSample
	if traced {
		root = b.tr.newID()
		mark = b.tr.mark()
		host0 = readHost()
		reg.a = s.srv.Runner().Metrics.Snapshot()
	}
	t0 := time.Now()
	lat, received := b.drive(s, bodies, root, check)
	t1 := time.Now()
	b.attempted += len(bodies)
	if traced {
		reg.b = s.srv.Runner().Metrics.Snapshot()
		b.serviceLayers(mark, root, reg, host0, t0, t1, len(bodies), received)
	}
	return t1.Sub(t0), lat
}

// serviceCold sends every key once per round, in a seeded order, over a
// run of fresh servers, coldPassKeys keys to each: every request misses
// both the result and the image cache, so each pass exercises build,
// machine construction, JIT and execute on the service path, with
// "engine":"native" as a client would ask for it. Each round's simulated
// totals must repeat the first's exactly. Afterwards a seeded sample of
// keys is re-run on the reference engine.
func (b *bench) serviceCold() *summary {
	keys, err := shortKeys(b.opt.size.shortPrograms, difftest.Spectrum())
	if err != nil {
		b.fail("%v", err)
		return &summary{}
	}
	var order []int    // the current round's key order
	var next int       // the position in order of the next pass's first key
	var round []report // the current round's replies, by key
	var first []report // the first round's replies, by key
	var rounds int
	// One untimed round first: it grows the heap to the size a running
	// service has, and the first passes of a fresh process otherwise run
	// up to a fifth slower while the runtime maps that memory.
	warmup := (len(keys) + coldPassKeys - 1) / coldPassKeys
	s := b.loop(warmup, true, func() (*system, error) {
		svc, err := b.startService()
		if err != nil {
			return nil, err
		}
		return &system{close: svc.close, pass: func(traced bool) passStats {
			if next == len(order) {
				order, next, round = b.rng.Perm(len(keys)), 0, make([]report, len(keys))
			}
			chunk := order[next:min(next+coldPassKeys, len(order))]
			next += len(chunk)
			bodies := make([][]byte, len(chunk))
			for i, k := range chunk {
				bodies[i] = keys[k].body
			}
			wall, lat := b.servicePass(svc, bodies, traced, func(i, status int, body []byte) error {
				k := chunk[i]
				rep, err := checkResponse(keys[k], status, body)
				round[k] = rep
				return err
			})
			st := passStats{wall: wall, work: len(bodies), lat: lat, simWall: wall}
			for _, k := range chunk {
				st.instrs += round[k].Instrs
			}
			if next == len(order) {
				rounds++
				if first == nil {
					first = round
				} else {
					b.checkRepeat(rounds, keys, first, round)
				}
			}
			return st
		}}, nil
	})
	if first != nil {
		s.cycles, s.t2err = simTotals(keys, first)
		b.referenceCheck(keys, first)
	}
	return s
}

// checkRepeat fails a round whose simulated totals differ from the first
// round's.
func (b *bench) checkRepeat(n int, keys []key, first, got []report) {
	c0, e0 := simTotals(keys, first)
	if c, e := simTotals(keys, got); c != c0 || e != e0 {
		b.fail("round %d: simulated cycles %d and Table 2 error %g differ from the first round's %d and %g",
			n, c, e, c0, e0)
	}
}

// serviceWarm prewarms the short programs' high5 keys into a fresh server
// during setup, then sends a seeded Zipf stream over them: every request
// is a result-cache hit, so no simulation runs and what remains is the
// server and runner hit path. One server serves every pass, each pass the
// stream's next stretch, so the passes do not pay for building and
// collecting a server's caches. The seed ranks the keys by popularity and
// draws the stream; the set itself is fixed so that its simulated
// figures, which describe the prewarm (the only simulation the workload
// does), repeat exactly from seed to seed.
func (b *bench) serviceWarm() *summary {
	var cfgs []core.Config
	for _, cfg := range difftest.Spectrum() {
		if cfg.Scheme == tags.High5 {
			cfgs = append(cfgs, cfg)
		}
	}
	keys, err := shortKeys(b.opt.size.shortPrograms, cfgs)
	if err != nil {
		b.fail("%v", err)
		return &summary{}
	}
	var progs []*programs.Program
	for _, name := range programNames(keys) {
		p, _ := programs.ByName(name)
		progs = append(progs, p)
	}
	rank := b.rng.Perm(len(keys)) // rank[0] is the most requested key
	zipf := rand.NewZipf(b.rng, 1.1, 1, uint64(len(keys)-1))
	var first []report // the replies to the first set-up's prewarm
	// Two untimed passes first: until the server's first collections the
	// heap is still growing and the passes pay for none.
	s := b.loop(2, false, func() (*system, error) {
		svc, err := b.startService()
		if err != nil {
			return nil, err
		}
		reg := regDelta{a: svc.srv.Runner().Metrics.Snapshot()}
		t0 := time.Now()
		if err := svc.srv.Runner().Prewarm(progs, cfgs); err != nil {
			svc.close()
			return nil, fmt.Errorf("prewarm: %w", err)
		}
		sys := &system{close: svc.close, simWall: time.Since(t0)}
		reg.b = svc.srv.Runner().Metrics.Snapshot()
		sys.instrs = uint64(reg.counter("instrs_total", ""))
		var want [][]byte // every key's verified reply, once read
		sys.pass = func(traced bool) passStats {
			if want == nil {
				want, first = b.readKeys(svc, keys)
			}
			stream := make([]int, b.opt.size.warmRequests)
			for i := range stream {
				stream[i] = rank[zipf.Uint64()]
			}
			st := passStats{work: len(stream)}
			st.wall, st.lat = b.warmPass(svc, keys, stream, want, traced)
			return st
		}
		return sys, nil
	})
	if first != nil {
		s.cycles, s.t2err = simTotals(keys, first)
	}
	return s
}

// readKeys reads every key once, untimed, checks each reply and returns
// them: the warm stream's replies must equal these byte for byte.
func (b *bench) readKeys(svc *service, keys []key) ([][]byte, []report) {
	bodies := make([][]byte, len(keys))
	for i, k := range keys {
		bodies[i] = k.body
	}
	reps := make([]report, len(keys))
	want := make([][]byte, len(keys))
	b.drive(svc, bodies, 0, func(i, status int, body []byte) error {
		rep, err := checkResponse(keys[i], status, body)
		reps[i], want[i] = rep, bytes.Clone(body)
		return err
	})
	b.attempted += len(keys)
	return want, reps
}

// warmPass times one stretch of the warm stream.
func (b *bench) warmPass(svc *service, keys []key, stream []int, want [][]byte, traced bool) (time.Duration, []time.Duration) {
	bodies := make([][]byte, len(stream))
	for i, k := range stream {
		bodies[i] = keys[k].body
	}
	return b.servicePass(svc, bodies, traced, func(i, status int, body []byte) error {
		k := stream[i]
		if status != http.StatusOK || !bytes.Equal(body, want[k]) {
			return fmt.Errorf("%s %s: HTTP %d, reply differs from the verified one", keys[k].p.Name, keys[k].cfg, status)
		}
		return nil
	})
}

// simTotals is a complete set of replies' simulated cycles and the Table
// 2 error they give.
func simTotals(keys []key, reps []report) (cycles uint64, t2err float64) {
	for _, r := range reps {
		cycles += r.Cycles
	}
	return cycles, serviceTable2Error(keys, reps)
}
