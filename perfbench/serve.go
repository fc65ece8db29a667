package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"frac"
	"frac/internal/linalg"
	"frac/internal/serve"
)

// replay is a serve workload's traffic: request bodies built from the
// normals of the model's own generated pool, and the scores the saved
// artifact gives them offline, which every served response must match bit
// for bit.
type replay struct {
	rows     []*linalg.Matrix // per body
	plain    [][]byte         // request bodies without explain
	explain  [][]byte         // the same rows with "explain": k
	expected [][]float64      // Model.ScoreRowsInto on the artifact
	every, k int              // request i asks explain=k when i%every == every-1
}

func (r *replay) body(i int) (blob []byte, rows int, explained bool) {
	j := i % len(r.plain)
	if r.every > 0 && i%r.every == r.every-1 {
		return r.explain[j], r.rows[j].Rows, true
	}
	return r.plain[j], r.rows[j].Rows, false
}

// servedModel is one set-up's artifact and its pool.
type servedModel struct {
	path string
	pool *frac.Dataset
}

// normals returns the pool's normal rows, unlabelled.
func normals(d *frac.Dataset) *frac.Dataset {
	var keep []int
	for i, a := range d.Anomalous {
		if !a {
			keep = append(keep, i)
		}
	}
	out := d.SelectSamples(keep)
	out.Anomalous = nil
	return out
}

// trainServed generates the pool, trains the workload's model with
// Config{} defaults, captures its drift reference from the pool's normals
// and saves it.
func (b *bench) trainServed(trace string, parent int) (servedModel, time.Duration, error) {
	pool, parse, err := b.makePool(trace, parent)
	if err != nil {
		return servedModel{}, 0, err
	}
	ref := normals(pool)
	train := ref
	if b.spec.TrainOn == "replicate_0" {
		rep, err := b.replicate(pool, 0)
		if err != nil {
			return servedModel{}, 0, err
		}
		train = rep.Train
	}
	var model *frac.Model
	b.spans.timed(trace, "core.train", parent, func() {
		model, err = frac.Train(train, frac.FullTerms(train.NumFeatures()), frac.Config{Seed: b.seed})
	})
	if err != nil {
		return servedModel{}, 0, err
	}
	b.spans.timed(trace, "core.drift_reference", parent, func() {
		err = model.CaptureDriftReference(context.Background(), ref)
	})
	if err != nil {
		return servedModel{}, 0, err
	}
	path := filepath.Join(b.work, "model.frac")
	b.spans.timed(trace, "core.save", parent, func() { err = saveModel(path, model) })
	if err != nil {
		return servedModel{}, 0, err
	}
	return servedModel{path: path, pool: pool}, parse, nil
}

func saveModel(path string, m *frac.Model) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := frac.SaveModel(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadArtifact reads the saved model back with frac.LoadModel: the
// reference scorer for every served response.
func loadArtifact(path string) (*frac.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return frac.LoadModel(f)
}

// buildReplay lays the pool's normals out in an order drawn from the seed
// and cuts them into request bodies of the workload's row count; body j
// starts at normal j, so every normal leads one body.
func (b *bench) buildReplay(sm servedModel, model *frac.Model) (*replay, error) {
	ref := normals(sm.pool)
	n, cols := ref.NumSamples(), ref.NumFeatures()
	order := frac.NewRNG(b.seed).Stream("replay").Perm(n)
	rp := &replay{every: b.spec.ExplainEvery, k: b.spec.ExplainK}
	ws := frac.NewScoreWorkspace()
	for j := 0; j < n; j++ {
		m := linalg.NewMatrix(b.spec.RowsPerRequest, cols)
		wire := make([][]*float64, m.Rows)
		for r := 0; r < m.Rows; r++ {
			copy(m.Row(r), ref.Sample(order[(j*m.Rows+r)%n]))
			wire[r] = make([]*float64, cols)
			for c, v := range m.Row(r) {
				if !frac.IsMissing(v) {
					v := v
					wire[r][c] = &v
				}
			}
		}
		want := make([]float64, m.Rows)
		if err := model.ScoreRowsInto(m, want, ws); err != nil {
			return nil, err
		}
		plain, err := json.Marshal(map[string]any{"model": "m", "rows": wire})
		if err != nil {
			return nil, err
		}
		explain, err := json.Marshal(map[string]any{"model": "m", "rows": wire, "explain": rp.k})
		if err != nil {
			return nil, err
		}
		rp.rows = append(rp.rows, m)
		rp.plain = append(rp.plain, plain)
		rp.explain = append(rp.explain, explain)
		rp.expected = append(rp.expected, want)
	}
	return rp, nil
}

// poolAUC is the served model's detection quality on its own pool: the
// artifact's scores for every normal and anomalous sample.
func poolAUC(model *frac.Model, pool *frac.Dataset) (float64, error) {
	m := linalg.NewMatrix(pool.NumSamples(), pool.NumFeatures())
	for i := 0; i < m.Rows; i++ {
		copy(m.Row(i), pool.Sample(i))
	}
	scores := make([]float64, m.Rows)
	if err := model.ScoreRowsInto(m, scores, frac.NewScoreWorkspace()); err != nil {
		return 0, err
	}
	return frac.AUC(scores, pool.Anomalous), nil
}

// verify checks one served response: status 200, every score bit-identical
// to the artifact's offline score, and, when explained, k finite
// attributions per row.
func (rp *replay) verify(s *sample) error {
	if s.err != nil {
		return s.err
	}
	if s.status != http.StatusOK {
		return fmt.Errorf("status %d: %s", s.status, bytes.TrimSpace(s.body))
	}
	var resp serve.ScoreResponse
	if err := json.Unmarshal(s.body, &resp); err != nil {
		return err
	}
	want := rp.expected[s.index%len(rp.expected)]
	if len(resp.Scores) != len(want) {
		return fmt.Errorf("%d scores, want %d", len(resp.Scores), len(want))
	}
	for i, v := range resp.Scores {
		if math.Float64bits(v) != math.Float64bits(want[i]) {
			return fmt.Errorf("row %d scored %v, artifact gives %v", i, v, want[i])
		}
	}
	_, _, explained := rp.body(s.index)
	if !explained {
		return nil
	}
	if len(resp.Explanations) != len(want) {
		return fmt.Errorf("%d explanation rows, want %d", len(resp.Explanations), len(want))
	}
	for i, row := range resp.Explanations {
		if len(row) != rp.k {
			return fmt.Errorf("row %d carries %d attributions, want %d", i, len(row), rp.k)
		}
		for _, a := range row {
			if math.IsNaN(a.Contribution) || math.IsInf(a.Contribution, 0) {
				return fmt.Errorf("row %d: attribution to %s is %v", i, a.Feature, a.Contribution)
			}
		}
	}
	return nil
}

// loadPhase runs one open-loop phase of the replay at rate for d, with
// arrivals drawn from the seed and the phase name, checks every response
// and appends the generator's lateness to late.
func (b *bench) loadPhase(name string, rate float64, d time.Duration, rp *replay, send sender, late *[]float64) ([]sample, error) {
	sched := poissonSchedule(frac.NewRNG(b.seed).Stream("arrivals-"+name), rate, d)
	drain := max(time.Duration(4*b.spec.P99LimitMs)*time.Millisecond, time.Second)
	samples, err := openLoop(sched, b.spec.Connections, drain, send)
	if err != nil {
		return nil, err
	}
	b.verifyAll(name, rp, samples)
	*late = append(*late, lateMs(samples)...)
	return samples, nil
}

// verifyAll counts every sent request of a phase and checks its response.
func (b *bench) verifyAll(phase string, rp *replay, samples []sample) {
	for i := range samples {
		if errors.Is(samples[i].err, errNotSent) {
			continue
		}
		b.attempt(1)
		if err := rp.verify(&samples[i]); err != nil {
			b.miss("%s request %d: %v", phase, i, err)
		}
	}
}

// httpSender posts replay bodies to addr, one keep-alive connection per
// generator connection. hook, when set, may add headers to a request.
func httpSender(addr string, conns int, rp *replay, hook func(*http.Request, int)) sender {
	clients := make([]*http.Client, conns)
	for i := range clients {
		clients[i] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	url := "http://" + addr + "/v1/score"
	return func(conn, i int) (int, []byte, error) {
		blob, _, _ := rp.body(i)
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(blob))
		if err != nil {
			return 0, nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if hook != nil {
			hook(req, i)
		}
		resp, err := clients[conn].Do(req)
		if err != nil {
			return 0, nil, err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		return resp.StatusCode, body, err
	}
}

// checkHealth counts one check: /v1/health reports every model healthy.
func (b *bench) checkHealth(addr string) {
	b.attempt(1)
	resp, err := http.Get("http://" + addr + "/v1/health")
	if err != nil {
		b.miss("health: %v", err)
		return
	}
	defer resp.Body.Close()
	var doc serve.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		b.miss("health: %v", err)
		return
	}
	if len(doc.Models) == 0 {
		b.miss("health: no models")
	}
	for _, m := range doc.Models {
		if m.Status != "healthy" {
			b.miss("health: model %s is %s after the clean replay", m.Model, m.Status)
		}
	}
	fmt.Printf("# health: %d windows closed, status %s\n", doc.Models[0].Windows, doc.Models[0].Status)
}

// fracserve is a running fracserve process.
type fracserve struct {
	cmd  *exec.Cmd
	addr string
	done chan error
}

// startFracserve starts the binary with the workload's flags and waits for
// its listening line.
func (b *bench) startFracserve(modelPath string) (*fracserve, error) {
	args := make([]string, len(b.spec.FracserveFlags))
	for i, a := range b.spec.FracserveFlags {
		args[i] = strings.ReplaceAll(a, "<model file>", modelPath)
	}
	cmd := exec.Command(b.fracserve, args...)
	cmd.Stderr = os.Stderr
	// The daemon dies with the benchmark even if the benchmark is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	fs := &fracserve{cmd: cmd, done: make(chan error, 1)}
	lines := bufio.NewScanner(out)
	for lines.Scan() {
		if a, ok := strings.CutPrefix(lines.Text(), "fracserve: listening on http://"); ok {
			fs.addr = a
			break
		}
	}
	// Keep draining stdout so the daemon never blocks on a full pipe.
	go func() {
		io.Copy(io.Discard, out)
		fs.done <- cmd.Wait()
	}()
	if fs.addr == "" {
		fs.stop()
		return nil, errors.New("fracserve exited before listening")
	}
	return fs, nil
}

// stop sends SIGTERM and waits for the process to exit, killing it after
// ten seconds. A daemon stopped before it installed its signal handler dies
// of the SIGTERM itself, which is as good a stop.
func (fs *fracserve) stop() error {
	_ = fs.cmd.Process.Signal(syscall.SIGTERM) // an exited process reports its status through done
	select {
	case err := <-fs.done:
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(10 * time.Second):
		_ = fs.cmd.Process.Kill() // Wait below reports the outcome
		return fmt.Errorf("fracserve ignored SIGTERM: %v", <-fs.done)
	}
}

// firstResponse posts body 0 until the server answers 200.
func firstResponse(addr string, rp *replay) error {
	send := httpSender(addr, 1, rp, nil)
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body, err := send(0, 0)
		if err == nil && status == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no good response: status %d %s %v", status, body, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// The fractions of a serve run each phase takes, and the goodput grid: the
// probe rates above the high fixed rate (1.25 to 2.44 times it, which
// bracket the limit on both serve workloads at HEAD) and the rounds of
// segments they share the rest of the run in.
const (
	warmupShare   = 0.04
	fixedShare    = 0.2 // each of the low and the high rate
	fixedSegments = 4   // alternating low and high segments
	gridProbes    = 4
	gridRounds    = 4
)

// runServe is the untraced serve workload: fracserve with default flags,
// set up spec.SetupRepeats times, then driven open-loop at the low and high
// fixed rates and through the goodput grid.
func (b *bench) runServe() error {
	var setups []float64
	var fs *fracserve
	var sm servedModel
	var rp *replay
	var model *frac.Model
	var artifact []byte
	for i := 0; i < b.spec.SetupRepeats; i++ {
		start := time.Now()
		var err error
		if sm, _, err = b.trainServed("", 0); err != nil {
			return err
		}
		if fs, err = b.startFracserve(sm.path); err != nil {
			return err
		}
		// The reference scores are the benchmark's own work, not set-up
		// time of the program: they are built once, from the first
		// artifact, and every later set-up must save the same bytes.
		prep := time.Now()
		blob, err := os.ReadFile(sm.path)
		if err != nil {
			fs.stop()
			return err
		}
		if i == 0 {
			artifact = blob
			if model, err = loadArtifact(sm.path); err == nil {
				rp, err = b.buildReplay(sm, model)
			}
			if err != nil {
				fs.stop()
				return err
			}
		} else if b.attempt(1); !bytes.Equal(blob, artifact) {
			b.miss("set-up %d saved a different artifact from the same seed", i)
		}
		prepTime := time.Since(prep)
		if err := firstResponse(fs.addr, rp); err != nil {
			fs.stop()
			return err
		}
		setups = append(setups, (time.Since(start) - prepTime).Seconds())
		if i < b.spec.SetupRepeats-1 {
			if err := fs.stop(); err != nil {
				return fmt.Errorf("stopping fracserve: %w", err)
			}
		}
	}
	stopped := false
	defer func() {
		if !stopped {
			fs.stop()
		}
	}()
	auc, err := poolAUC(model, sm.pool)
	if err != nil {
		return err
	}

	conns := b.spec.Connections
	send := httpSender(fs.addr, conns, rp, nil)
	var late []float64
	phase := func(name string, rate float64, d time.Duration) ([]sample, error) {
		return b.loadPhase(name, rate, d, rp, send, &late)
	}
	sec := b.seconds.Seconds()
	if _, err := phase("warmup", b.spec.LowRPS, seconds(max(warmupShare*sec, 0.5))); err != nil {
		return err
	}
	// The fixed rates alternate in short segments, so each rate's figures
	// span the run rather than one stretch of the machine's weather.
	var low, high [][]sample
	for s := 0; s < fixedSegments; s++ {
		seg, err := phase(fmt.Sprintf("low-%d", s), b.spec.LowRPS, seconds(fixedShare*sec/fixedSegments))
		if err != nil {
			return err
		}
		low = append(low, seg)
		if seg, err = phase(fmt.Sprintf("high-%d", s), b.spec.HighRPS, seconds(fixedShare*sec/fixedSegments)); err != nil {
			return err
		}
		high = append(high, seg)
	}
	lowJudged, err := judge(b.spec.LowRPS, b.spec.P99LimitMs, low)
	if err != nil {
		return err
	}
	highJudged, err := judge(b.spec.HighRPS, b.spec.P99LimitMs, high)
	if err != nil {
		return err
	}
	segLen := seconds((1 - warmupShare - 2*fixedShare) * sec / (gridProbes * gridRounds))
	rps, probes, err := goodput([]probeResult{lowJudged, highJudged}, b.spec.P99LimitMs,
		gridRates(b.spec.HighRPS, gridProbes), gridRounds,
		func(rate float64, round int) ([]sample, error) {
			return phase(fmt.Sprintf("probe-%.3f-%d", rate, round), rate, segLen)
		})
	if err != nil {
		return err
	}
	b.checkHealth(fs.addr)
	rss, err := peakRSSMB(fs.cmd.Process.Pid)
	if err != nil {
		return err
	}
	stopped = true
	if err := fs.stop(); err != nil {
		return fmt.Errorf("stopping fracserve: %w", err)
	}

	fmt.Printf("# low  %.0f/s: %s\n", b.spec.LowRPS, lowJudged.lat)
	for _, p := range probes {
		fmt.Printf("# %.1f/s: %s, median segment tail %.3fms pass=%v\n", p.rate, p.lat, p.tail, p.pass)
	}
	fmt.Printf("# goodput %.1f/s at tail <= %.0f ms\n", rps, b.spec.P99LimitMs)
	if l, err := summarize(late); err == nil {
		fmt.Printf("# generator lateness: %s\n", l)
	}
	if rps == 0 {
		b.miss("no probed rate met the %.0f ms tail limit", b.spec.P99LimitMs)
	}
	b.set("setup_s", "s", median(setups))
	b.set("latency_ms.p50", "ms", lowJudged.lat.p50)
	b.set("throughput_per_s", "1/s", rps)
	b.set("auc", "ratio", auc)
	b.set("peak_rss_mb", "MB", rss)
	b.set("ok_frac", "ratio", float64(b.attempted-b.failed)/float64(b.attempted))
	return nil
}
