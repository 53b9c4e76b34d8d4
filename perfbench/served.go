package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"mclg/internal/bookshelf"
	"mclg/internal/core"
	"mclg/internal/design"
	"mclg/internal/gen"
	"mclg/internal/serve"
)

// Served-mix parameters.
const (
	// servedRate is the open-loop arrival rate, requests per second.
	servedRate = 8.0
	// latencyLimit is the workload's latency limit: goodput counts the
	// requests that succeed within it. It is three to nine times the p95
	// latency recorded at servedRate on the tree that defined the benchmark
	// (168–542 ms across host states), so goodput_rps moves when requests
	// fail or the tail slows several-fold; the latency metrics carry
	// smaller changes.
	latencyLimit = 1500 * time.Millisecond
	// servedPool is the default Config's worker pool size.
	servedPool = 2
	// repeatLag is how long before its due time a design must have been
	// sent cold for a repeat or near request to target it, so the cold
	// solve has finished and repeats read the cache, not the in-flight
	// dedup.
	repeatLag = 2 * time.Second
	// nearSigma is the re-placement noise of a near request, in sites.
	nearSigma = 0.25
	// ecoMoves is the size of one ECO apply batch; set-up opens one
	// session per shape.
	ecoMoves = 4
)

// servedShapes are the small designs the mix sends, 1.5k–3k cells each.
var servedShapes = []struct {
	bench string
	scale float64
}{
	{"fft_2", 0.06},
	{"matrix_mult_1", 0.015},
	{"superblue19", 0.005},
}

// classDeck fixes the mix: per 20 requests, 8 cold, 6 repeat, 3 near and 3
// eco, shuffled by the workload seed.
var classDeck = []string{
	"cold", "cold", "cold", "cold", "cold", "cold", "cold", "cold",
	"repeat", "repeat", "repeat", "repeat", "repeat", "repeat",
	"near", "near", "near", "eco", "eco", "eco",
}

// payload is one design as inline Bookshelf files.
type payload struct {
	files map[string]string
}

// request is one scheduled request and, after the run, its outcome.
type request struct {
	class   string
	due     time.Duration // offset from the schedule start
	p       *payload
	target  int // index of the cold (or warm-up, when negative) request a repeat or near targets
	session int
	deltas  []map[string]any

	sent, done time.Duration
	status     int
	err        error
	rep        wireReport
	eco        ecoWire
}

// wireReport is the part of the /v1/legalize response the benchmark reads.
// wall_ms is deliberately not read: on cache hits it repeats the original
// solve's time.
type wireReport struct {
	Iterations        int     `json:"iterations"`
	Legal             bool    `json:"legal"`
	DisplacementSites float64 `json:"displacement_sites"`
	MaxDispSites      float64 `json:"max_disp_sites"`
	HPWL              float64 `json:"hpwl"`
	DeltaHPWL         float64 `json:"delta_hpwl"`
	BuildMS           float64 `json:"build_ms"`
	SolveMS           float64 `json:"solve_ms"`
	TetrisMS          float64 `json:"tetris_ms"`
	PosHash           string  `json:"pos_hash"`
	Cache             string  `json:"cache"`
	Warm              bool    `json:"warm"`
}

// ecoWire is the part of the /v1/eco response the benchmark reads.
type ecoWire struct {
	Apply *struct {
		Bands   int    `json:"bands"`
		PosHash string `json:"pos_hash"`
	} `json:"apply"`
	Certificate *struct {
		Match bool `json:"match"`
		Legal bool `json:"legal"`
		Pass  bool `json:"pass"`
	} `json:"certificate"`
}

// served is one in-process daemon with its loopback listener and client.
type served struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	client *http.Client
	done   chan struct{}
}

// startServed builds a daemon with the default Config and waits until it is
// ready.
func startServed() (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{
		srv:  serve.New(serve.Config{}),
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     nproc,
			MaxIdleConnsPerHost: nproc,
			DisableCompression:  true,
		}},
	}
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	for i := 0; ; i++ {
		resp, err := s.client.Get(s.url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		if i == 1000 {
			s.stop()
			return nil, fmt.Errorf("daemon not ready: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop shuts the listener and drains the daemon, waiting for both.
func (s *served) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // best effort: the daemon drain below still runs
	<-s.done
	_ = s.srv.Drain(ctx)
	s.client.CloseIdleConnections()
}

// post sends body as JSON and decodes a 200 response into out.
func (s *served) post(path string, body any, out any) (int, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := s.client.Post(s.url+path, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return resp.StatusCode, json.Unmarshal(data, out)
}

// makePayload writes d as Bookshelf files and reads them back as strings.
func makePayload(d *design.Design, dir string) (*payload, error) {
	base := filepath.Join(dir, "d")
	if err := bookshelf.Write(d, base+".aux"); err != nil {
		return nil, err
	}
	p := &payload{files: map[string]string{}}
	for _, comp := range []string{"nodes", "nets", "pl", "scl", "wts"} {
		b, err := os.ReadFile(base + "." + comp)
		if err != nil {
			return nil, err
		}
		p.files[comp] = string(b)
	}
	return p, nil
}

// loadPayload parses a payload through the same Bookshelf reader the daemon
// uses, so a local solve sees bit-identical input.
func loadPayload(p *payload, dir string) (*design.Design, error) {
	var f bookshelf.Files
	for comp, content := range p.files {
		path := filepath.Join(dir, "ref."+comp)
		if err := os.WriteFile(path, []byte(content), 0o600); err != nil {
			return nil, err
		}
		switch comp {
		case "nodes":
			f.Nodes = path
		case "nets":
			f.Nets = path
		case "pl":
			f.Pl = path
		case "scl":
			f.Scl = path
		case "wts":
			f.Wts = path
		}
	}
	return bookshelf.ReadFiles(f, "upload")
}

// mixInputs is everything the served-mix run sends, generated from the
// workload seed before any timing starts.
type mixInputs struct {
	warm     []*payload // warm-up jobs, one per shape
	sessions []*payload // ECO session bases, one per shape
	reqs     []*request
}

// genShape generates the served design with generator seed gseed in shape
// shape, re-placed with the workload seed's noise. Generator seeds come
// from a fixed pool, as for the dense panel: per-design iteration counts
// vary several-fold across generator seeds, so drawing topologies from the
// workload seed would make every timing depend on which designs a seed
// happened to pick.
func genShape(cfg config, rng *rand.Rand, shape int, gseed int64, name string) (*design.Design, error) {
	sh := servedShapes[shape]
	e, err := gen.FindEntry(sh.bench)
	if err != nil {
		return nil, err
	}
	spec := gen.SuiteSpec(e, sh.scale*cfg.scale)
	spec.Seed = gseed
	spec.Name = name
	d, err := gen.Generate(spec)
	if err != nil {
		return nil, err
	}
	replace(d, rng, replaceSigma)
	return d, nil
}

// genMix builds the schedule: servedRate requests per second for
// cfg.seconds, classes dealt from the seed-shuffled deck.
func genMix(cfg config, dir string) (*mixInputs, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	in := &mixInputs{}
	// designs keeps the generated design of each payload a near request or
	// an ECO batch is derived from, for the generation only.
	designs := map[*payload]*design.Design{}
	for sh := range servedShapes {
		d, err := genShape(cfg, rng, sh, 1001, fmt.Sprintf("warm-%d", sh))
		if err != nil {
			return nil, err
		}
		p, err := makePayload(d, dir)
		if err != nil {
			return nil, err
		}
		in.warm = append(in.warm, p)
		designs[p] = d
		d, err = genShape(cfg, rng, sh, 2001, fmt.Sprintf("eco-%d", sh))
		if err != nil {
			return nil, err
		}
		if p, err = makePayload(d, dir); err != nil {
			return nil, err
		}
		in.sessions = append(in.sessions, p)
		designs[p] = d
	}
	n := int(math.Round(servedRate * cfg.seconds))
	var deck []string
	var colds []int
	for i := 0; i < n; i++ {
		if len(deck) == 0 {
			deck = append([]string(nil), classDeck...)
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		r := &request{class: deck[0], due: time.Duration(float64(i) / servedRate * float64(time.Second))}
		deck = deck[1:]
		// Targets of repeat and near: cold requests due at least repeatLag
		// earlier, the most recent eight of them; warm-up jobs before any.
		var eligible []int
		for _, c := range colds {
			if in.reqs[c].due+repeatLag <= r.due {
				eligible = append(eligible, c)
			}
		}
		if len(eligible) > 8 {
			// Older cold designs can never be targeted again.
			for _, c := range eligible[:len(eligible)-8] {
				delete(designs, in.reqs[c].p)
			}
			eligible = eligible[len(eligible)-8:]
		}
		pick := func() (int, *payload) {
			if len(eligible) == 0 {
				w := rng.Intn(len(in.warm))
				return -1 - w, in.warm[w]
			}
			c := eligible[rng.Intn(len(eligible))]
			return c, in.reqs[c].p
		}
		switch r.class {
		case "cold":
			// The k-th cold request is pool design k whatever the seed, so
			// every run sends the same topologies.
			k := len(colds)
			d, err := genShape(cfg, rng, k%len(servedShapes), int64(k/len(servedShapes)+1), fmt.Sprintf("cold-%d", k))
			if err != nil {
				return nil, err
			}
			if r.p, err = makePayload(d, dir); err != nil {
				return nil, err
			}
			designs[r.p] = d
			colds = append(colds, i)
		case "repeat":
			r.target, r.p = pick()
		case "near":
			var base *payload
			r.target, base = pick()
			d := designs[base].Clone()
			d.Name = fmt.Sprintf("near-%d", i)
			replace(d, rng, nearSigma)
			p, err := makePayload(d, dir)
			if err != nil {
				return nil, err
			}
			r.p = p
		case "eco":
			r.session = rng.Intn(len(in.sessions))
			r.deltas = ecoBatch(designs[in.sessions[r.session]], rng)
		}
		in.reqs = append(in.reqs, r)
	}
	return in, nil
}

// ecoBatch moves ecoMoves random single-row cells a few sites along x.
func ecoBatch(d *design.Design, rng *rand.Rand) []map[string]any {
	var out []map[string]any
	for len(out) < ecoMoves {
		c := d.Cells[rng.Intn(len(d.Cells))]
		if c.Fixed || c.RowSpan != 1 {
			continue
		}
		dx := float64(rng.Intn(9)-4) * d.SiteW
		x := math.Min(math.Max(c.GX+dx, d.Core.Lo.X), d.Core.Hi.X-c.W)
		out = append(out, map[string]any{"op": "move", "cell": c.ID, "x": x, "y": c.GY})
	}
	return out
}

func legalizeBody(p *payload) map[string]any {
	return map[string]any{"files": p.files}
}

// servedSetup starts a daemon, opens the ECO sessions and runs the warm-up
// jobs. It returns the daemon and each session's create latency.
func servedSetup(in *mixInputs) (*served, []float64, []wireReport, error) {
	s, err := startServed()
	if err != nil {
		return nil, nil, nil, err
	}
	var createS []float64
	for i, p := range in.sessions {
		var w ecoWire
		t := time.Now()
		if _, err := s.post("/v1/eco", map[string]any{
			"action": "create", "session": fmt.Sprintf("eco-%d", i), "files": p.files,
		}, &w); err != nil {
			s.stop()
			return nil, nil, nil, fmt.Errorf("eco create: %w", err)
		}
		createS = append(createS, since(t))
	}
	var warm []wireReport
	for _, p := range in.warm {
		var rep wireReport
		if _, err := s.post("/v1/legalize", legalizeBody(p), &rep); err != nil {
			s.stop()
			return nil, nil, nil, fmt.Errorf("warm-up job: %w", err)
		}
		warm = append(warm, rep)
	}
	return s, createS, warm, nil
}

// runServed is the served-mix workload.
func runServed(cfg config, res *result) error {
	dir, err := os.MkdirTemp("", "perfbench-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	in, err := genMix(cfg, dir)
	if err != nil {
		return err
	}
	var setups []float64
	var s *served
	var createS []float64
	var warm []wireReport
	for i := 0; i < setupRepeats; i++ {
		if s != nil {
			s.stop()
		}
		t := time.Now()
		if s, createS, warm, err = servedSetup(in); err != nil {
			return err
		}
		setups = append(setups, since(t))
	}
	res.e2e("setup_s", median(setups), "s", len(setups))

	// The in-process references of cold and near requests are solved in
	// two halves, before and after the schedule, so a slow stretch of the
	// machine does not bias legalize_serial_s.
	refs := map[int]reference{}
	references(in, dir, refs, 0)
	wall := openLoop(s, in.reqs, nil)
	commitSessions(s, res, len(in.sessions), "")
	s.stop()
	references(in, dir, refs, 1)
	lat := servedVerify(res, in.reqs, "", expectReferences(in, warm, refs))
	for i, r := range in.reqs {
		if r.class == "cold" && refs[i].err == nil {
			lat.serial = append(lat.serial, refs[i].seconds)
		}
	}
	servedMetrics(res, in, lat, wall)
	if !cfg.trace {
		return nil
	}

	// The traced phase repeats the schedule against a fresh daemon (so the
	// cache starts empty again) with a span around every request; its
	// results must equal the untraced phase's.
	if s, createS, warm, err = servedSetup(in); err != nil {
		return err
	}
	traced := &mixInputs{warm: in.warm, sessions: in.sessions}
	for _, r := range in.reqs {
		traced.reqs = append(traced.reqs, &request{
			class: r.class, due: r.due, p: r.p, target: r.target, session: r.session, deltas: r.deltas,
		})
	}
	twall := openLoop(s, traced.reqs, res.tr)
	commitSessions(s, res, len(in.sessions), "/traced")
	s.stop()
	tlat := servedVerify(res, traced.reqs, "/traced", expectUntraced(in))
	servedLayers(res, traced, tlat, twall, createS, warm)
	res.layerNote("trace.overhead_frac", median(tlat.all)/median(lat.all)-1, "ratio", len(tlat.all),
		"median request latency of the traced phase over the untraced phase")
	return nil
}

// openLoop sends every request at its due time from one generator
// goroutine, over at most nproc keep-alive connections, and waits for all
// responses. An ECO apply waits for the previous apply to its session to be
// answered, so a session's applies land in schedule order and every run
// reaches the same states; the wait counts in its latency. It returns the
// schedule's wall time in seconds.
func openLoop(s *served, reqs []*request, tr *tracer) float64 {
	var wg sync.WaitGroup
	lastApply := map[int]chan struct{}{}
	start := time.Now()
	for i, r := range reqs {
		if d := time.Until(start.Add(r.due)); d > 0 {
			time.Sleep(d)
		}
		r.sent = time.Since(start)
		var prev, answered chan struct{}
		if r.class == "eco" {
			prev, answered = lastApply[r.session], make(chan struct{})
			lastApply[r.session] = answered
		}
		wg.Add(1)
		go func(i int, r *request) {
			defer wg.Done()
			job := fmt.Sprintf("req-%d/%s", i, r.class)
			sp := tr.begin("serve.request", job, -1)
			if r.class == "eco" {
				if prev != nil {
					<-prev
				}
				r.status, r.err = s.post("/v1/eco", map[string]any{
					"action": "apply", "session": fmt.Sprintf("eco-%d", r.session), "deltas": r.deltas,
				}, &r.eco)
				close(answered)
			} else {
				r.status, r.err = s.post("/v1/legalize", legalizeBody(r.p), &r.rep)
			}
			tr.end(sp)
			r.done = time.Since(start)
		}(i, r)
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// commitSessions commits every ECO session and closes it; each commit is
// an attempted job whose replay certificate must pass. phase suffixes the
// job names.
func commitSessions(s *served, res *result, sessions int, phase string) {
	for i := 0; i < sessions; i++ {
		id := fmt.Sprintf("eco-%d", i)
		job := "session " + id + phase
		res.attempted++
		var w ecoWire
		_, err := s.post("/v1/eco", map[string]any{"action": "commit", "session": id}, &w)
		cert := w.Certificate
		if err != nil || cert == nil || !cert.Pass || !cert.Match || !cert.Legal {
			res.fail(job, "commit certificate did not pass (err %v)", err)
		}
		var c ecoWire
		if _, err := s.post("/v1/eco", map[string]any{"action": "close", "session": id}, &c); err != nil {
			res.fail(job, "close: %v", err)
		}
	}
}

// latencies groups the untraced phase's client latencies, in milliseconds
// from each request's due time.
type latencies struct {
	all, cold, repeat, near, eco, late []float64
	serial                             []float64 // local Workers = 1 solves of the cold designs, seconds
}

// reference is the in-process Workers = 1 cold solve of one request's
// bytes: its position hash and wall time, or the error that stopped it.
type reference struct {
	hash    string
	seconds float64
	err     error
}

// references solves every cold and near request whose index has the given
// parity, recording each into refs.
func references(in *mixInputs, dir string, refs map[int]reference, parity int) {
	for i, r := range in.reqs {
		if i%2 != parity || (r.class != "cold" && r.class != "near") {
			continue
		}
		d, err := loadPayload(r.p, dir)
		if err != nil {
			refs[i] = reference{err: fmt.Errorf("reference parse: %w", err)}
			continue
		}
		t := time.Now()
		_, err = core.New(coreOpts(1)).LegalizeContext(context.Background(), d)
		el := since(t)
		if err != nil {
			refs[i] = reference{err: fmt.Errorf("reference legalize: %w", err)}
			continue
		}
		q, err := checkPlacement(d)
		if err != nil {
			refs[i] = reference{err: fmt.Errorf("reference %w", err)}
			continue
		}
		refs[i] = reference{hash: q.hash, seconds: el}
	}
}

// expectFunc gives the pos_hash request i must carry and what it comes
// from, or the error that kept it from being known. An empty hash accepts
// any result.
type expectFunc func(i int, r *request) (hash, from string, err error)

// expectReferences is the untraced phase's expectation: every cold and
// near result equals the local solve of the same bytes, every repeat equals
// its target, and any ECO apply result is accepted (its session's commit
// certificate checks it).
func expectReferences(in *mixInputs, warm []wireReport, refs map[int]reference) expectFunc {
	return func(i int, r *request) (string, string, error) {
		switch r.class {
		case "cold", "near":
			return refs[i].hash, "the local cold solve", refs[i].err
		case "repeat":
			return targetHash(in, warm, r.target), "the cold result", nil
		}
		return "", "", nil
	}
}

// expectUntraced is the traced phase's expectation: every result equals the
// untraced phase's result of the same request.
func expectUntraced(in *mixInputs) expectFunc {
	return func(i int, r *request) (string, string, error) {
		u := in.reqs[i]
		if u.err != nil || (r.class == "eco" && u.eco.Apply == nil) {
			return "", "", fmt.Errorf("the untraced request failed")
		}
		if r.class == "eco" {
			return u.eco.Apply.PosHash, "the untraced apply", nil
		}
		return u.rep.PosHash, "the untraced phase", nil
	}
}

// servedVerify is the correctness gate of one served-mix phase: every
// request answered 200, every legalize result is legal, every ECO apply
// returned a result, and every pos_hash equals what want expects. phase
// suffixes the job names. It returns the phase's client latencies.
func servedVerify(res *result, reqs []*request, phase string, want expectFunc) latencies {
	var lat latencies
	for i, r := range reqs {
		job := fmt.Sprintf("req-%d/%s%s", i, r.class, phase)
		res.attempted++
		ms := 1e3 * (r.done - r.due).Seconds()
		lat.all = append(lat.all, ms)
		lat.late = append(lat.late, 1e3*(r.sent-r.due).Seconds())
		if r.err != nil {
			res.fail(job, "%v", r.err)
			continue
		}
		got := r.rep.PosHash
		switch r.class {
		case "eco":
			lat.eco = append(lat.eco, ms)
			if r.eco.Apply == nil || r.eco.Apply.PosHash == "" {
				res.fail(job, "apply response without a result")
				continue
			}
			got = r.eco.Apply.PosHash
		case "cold":
			lat.cold = append(lat.cold, ms)
		case "repeat":
			lat.repeat = append(lat.repeat, ms)
		case "near":
			lat.near = append(lat.near, ms)
		}
		if r.class != "eco" && !r.rep.Legal {
			res.fail(job, "served result reported illegal")
			continue
		}
		hash, from, err := want(i, r)
		if err != nil {
			res.fail(job, "%v", err)
			continue
		}
		if hash != "" && got != hash {
			res.fail(job, "pos_hash %s differs from %s %s", got, from, hash)
		}
	}
	return lat
}

// targetHash returns the pos_hash of the cold or warm-up result a repeat
// targets.
func targetHash(in *mixInputs, warm []wireReport, target int) string {
	if target < 0 {
		return warm[-1-target].PosHash
	}
	return in.reqs[target].rep.PosHash
}

// servedMetrics reports the end-to-end metrics of served-mix.
func servedMetrics(res *result, in *mixInputs, lat latencies, wall float64) {
	var total, maxd, h, hg float64
	var n, good int
	var legalize []float64
	for _, r := range in.reqs {
		if r.err == nil && r.done-r.due <= latencyLimit {
			good++
		}
		if r.class != "cold" || r.err != nil {
			continue
		}
		n++
		legalize = append(legalize, (r.rep.BuildMS+r.rep.SolveMS+r.rep.TetrisMS)/1e3)
		total += r.rep.DisplacementSites
		maxd = math.Max(maxd, r.rep.MaxDispSites)
		h += r.rep.HPWL
		hg += r.rep.HPWL / (1 + r.rep.DeltaHPWL)
	}
	// legalize_s is the daemon's own legalize time of each cold job (build,
	// solve, Tetris), so queueing behind other requests stays in the
	// latency metrics only. Cold designs range 130–3700 MMSIM iterations
	// and the median job falls where their times jump, so the median
	// spread 0.13–0.18 across seeds; the 10%-trimmed mean of the same jobs
	// spreads 0.04 and still drops the outliers.
	res.e2e("legalize_s", trimmedMean(legalize, 0.1), "s", len(legalize))
	res.e2e("legalize_serial_s", trimmedMean(lat.serial, 0.1), "s", len(lat.serial))
	res.e2e("latency_p50_ms", median(lat.all), "ms", len(lat.all))
	res.e2e("goodput_rps", float64(good)/wall, "1/s", len(lat.all))
	res.e2e("disp_total_sites", total, "sites", n)
	res.e2e("disp_max_sites", maxd, "sites", n)
	res.e2e("delta_hpwl_pct", 100*(h-hg)/hg, "%", n)
}

// servedLayers reports the per-layer metrics of served-mix from the traced
// phase's responses, latencies and schedule wall time.
func servedLayers(res *result, in *mixInputs, lat latencies, wall float64, createS []float64, warm []wireReport) {
	pct, v := tail(lat.all)
	res.layerNote("serve.latency_tail_ms", v, "ms", len(lat.all), fmt.Sprintf("p%g", pct))
	res.layer("serve.latency_tail_pct", pct, "%", len(lat.all))
	res.layer("serve.cold_p50_ms", median(lat.cold), "ms", len(lat.cold))
	res.layer("serve.hit_p50_ms", median(lat.repeat), "ms", len(lat.repeat))
	res.layer("serve.warm_p50_ms", median(lat.near), "ms", len(lat.near))
	res.layer("loadgen.late_p99_ms", quantile(lat.late, 0.99), "ms", len(lat.late))
	var hits, warms, nRepeat, nNear, s4, s429, s5 int
	var warmRatio, overhead, bands []float64
	var explained, missLat float64
	for _, r := range in.reqs {
		switch {
		case r.status == http.StatusTooManyRequests:
			s429++
			s4++
		case r.status >= 400 && r.status < 500:
			s4++
		case r.status >= 500 || (r.err != nil && r.status == 0):
			s5++
		}
		if r.err != nil {
			continue
		}
		ms := 1e3 * (r.done - r.due).Seconds()
		switch r.class {
		case "repeat":
			nRepeat++
			if r.rep.Cache == "hit" {
				hits++
			}
		case "near":
			nNear++
			if r.rep.Warm {
				warms++
			}
			base := targetIters(in, warm, r.target)
			if base > 0 {
				warmRatio = append(warmRatio, float64(r.rep.Iterations)/float64(base))
			}
		case "eco":
			if r.eco.Apply != nil {
				bands = append(bands, float64(r.eco.Apply.Bands))
			}
		}
		if r.class != "eco" && r.rep.Cache == "miss" {
			stages := r.rep.BuildMS + r.rep.SolveMS + r.rep.TetrisMS
			overhead = append(overhead, ms-stages)
			explained += stages
			missLat += ms
		}
	}
	res.layerNote("serve.hit_frac", ratio(hits, nRepeat), "ratio", nRepeat, "cache hits over repeat requests")
	res.layerNote("serve.warm_frac", ratio(warms, nNear), "ratio", nNear, "warm seeds over near requests")
	res.layer("serve.warm_iter_ratio", median(warmRatio), "ratio", len(warmRatio))
	res.layer("serve.overhead_ms", median(overhead), "ms", len(overhead))
	res.layerNote("serve.pool_busy_frac", explained/1e3/(wall*servedPool), "ratio", len(overhead),
		"daemon-reported build+solve+tetris of cache misses over the schedule's wall time times the pool size")
	res.layer("serve.status_4xx", float64(s4), "count", len(in.reqs))
	res.layer("serve.status_429", float64(s429), "count", len(in.reqs))
	res.layer("serve.status_5xx", float64(s5), "count", len(in.reqs))
	res.layer("eco.apply_p50_ms", median(lat.eco), "ms", len(lat.eco))
	res.layer("eco.bands_per_apply", median(bands), "count", len(bands))
	res.layerNote("eco.apply_vs_cold", median(lat.eco)/(1e3*median(createS)), "ratio", len(lat.eco),
		"apply latency over the cold legalize (session create) latency of the session designs")
	if missLat > 0 {
		res.layerNote("trace.coverage", explained/missLat, "ratio", len(overhead),
			"daemon-reported build+solve+tetris over client latency, cache misses")
	}
}

func targetIters(in *mixInputs, warm []wireReport, target int) int {
	if target < 0 {
		return warm[-1-target].Iterations
	}
	return in.reqs[target].rep.Iterations
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
