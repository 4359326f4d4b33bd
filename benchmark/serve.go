package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The serve-mixed load: a closed loop of serveClients clients against a
// server started with serverArgs. Each client submits a job, waits for
// its terminal event, then reads its status, and only then submits the
// next one — the way an ALS loop waits on each error query.
const (
	serveClients  = 2
	serveJobLimit = 60 * time.Second
)

var serverArgs = []string{
	"-addr", "127.0.0.1:0", "-job-workers", "2", "-workers", "1", "-default-timelimit", "60s",
}

// server is one running vacsem-serve process.
type server struct {
	cmd     *exec.Cmd
	base    string
	drained chan struct{}
}

// startServer execs the server and waits for its "listening on" line.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin, serverArgs...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, drained: make(chan struct{})}
	lines := bufio.NewScanner(out)
	for lines.Scan() {
		if addr, ok := strings.CutPrefix(lines.Text(), "listening on "); ok {
			s.base = "http://" + addr
			break
		}
	}
	go func() {
		defer close(s.drained)
		io.Copy(io.Discard, out)
	}()
	if s.base == "" {
		s.stop()
		return nil, fmt.Errorf("%s exited before listening", bin)
	}
	return s, nil
}

// stop shuts the server down with SIGTERM, waits for it, and returns its
// peak resident set size in MB.
func (s *server) stop() (float64, error) {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.cmd.Process.Kill()
	}
	<-s.drained
	err := s.cmd.Wait()
	if err != nil {
		return 0, fmt.Errorf("vacsem-serve: %w", err)
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, errors.New("vacsem-serve: no resource usage")
	}
	return float64(ru.Maxrss) / 1024, nil
}

// jobStatus is the part of GET /v1/jobs/{id} the benchmark reads.
type jobStatus struct {
	State  string `json:"state"`
	Error  string `json:"error"`
	Result *struct {
		Metrics []struct {
			Metric string `json:"metric"`
			Count  string `json:"count"`
		} `json:"metrics"`
	} `json:"result"`
	QueuedMS float64 `json:"queued_ms"`
	RunMS    float64 `json:"run_ms"`
}

// loadGen is the load-generating HTTP client of one server.
type loadGen struct {
	base   string
	client *http.Client
	tr     *http.Transport
}

func newLoadGen(base string) *loadGen {
	tr := &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}
	return &loadGen{base: base, tr: tr, client: &http.Client{Transport: tr}}
}

// runJobs plays the job list through serveClients closed-loop clients and
// returns one op per job, in job order, and the wall time.
func (g *loadGen) runJobs(in *inputs, rec *spanRecorder) ([]op, time.Duration) {
	ops := make([]op, len(in.Jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	wg.Add(serveClients)
	for c := 0; c < serveClients; c++ {
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(in.Jobs) {
					return
				}
				ops[j] = g.job(in.Pairs[in.Jobs[j]], rec)
			}
		}()
	}
	wg.Wait()
	g.tr.CloseIdleConnections()
	return ops, time.Since(start)
}

// job submits one pair and follows it to completion.
func (g *loadGen) job(p *pair, rec *spanRecorder) (o op) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*serveJobLimit)
	defer cancel()
	o = op{Pair: p}
	session := rec.newSession()
	root := rec.start("job", 0, session)
	t := time.Now()
	defer func() {
		o.Latency = time.Since(t)
		rec.end(root)
	}()
	var sub struct {
		JobID string `json:"job_id"`
	}
	rec.timed("http.submit", root, session, func() {
		o.Err = g.call(ctx, http.MethodPost, "/v1/verify", p.Body, http.StatusAccepted, &sub)
	})
	if o.Err != nil {
		return o
	}
	rec.timed("http.events", root, session, func() { o.Err = g.awaitDone(ctx, sub.JobID) })
	if o.Err != nil {
		return o
	}
	var st jobStatus
	rec.timed("http.status", root, session, func() {
		o.Err = g.call(ctx, http.MethodGet, "/v1/jobs/"+sub.JobID, nil, http.StatusOK, &st)
	})
	if o.Err != nil {
		return o
	}
	o.QueuedMS, o.RunMS = st.QueuedMS, st.RunMS
	if st.State != "done" || st.Result == nil {
		o.Err = fmt.Errorf("job %s ended %s: %s", sub.JobID, st.State, st.Error)
		return o
	}
	o.Counts = make(counts, len(st.Result.Metrics))
	for _, m := range st.Result.Metrics {
		v, ok := new(big.Int).SetString(m.Count, 10)
		if !ok {
			o.Err = fmt.Errorf("job %s: bad count %q", sub.JobID, m.Count)
			return o
		}
		o.Counts[strings.ToLower(m.Metric)] = v
	}
	return o
}

// call does one request and decodes the JSON answer into out; any other
// status than want is an error.
func (g *loadGen) call(ctx context.Context, method, path string, body []byte, want int, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, g.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

// awaitDone reads the job's event stream until its terminal job_state
// line.
func (g *loadGen) awaitDone(ctx context.Context, id string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return err
	}
	resp, err := g.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("events of %s: status %d", id, resp.StatusCode)
	}
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(make([]byte, 64<<10), 16<<20)
	for lines.Scan() {
		var ev struct {
			Ev string `json:"ev"`
		}
		if json.Unmarshal(lines.Bytes(), &ev) == nil && ev.Ev == "job_state" {
			// Read to the end so the connection is reused.
			_, err := io.Copy(io.Discard, resp.Body)
			return err
		}
	}
	if err := lines.Err(); err != nil {
		return err
	}
	return fmt.Errorf("events of %s ended without job_state", id)
}

// scrape reads the server's /metrics as name -> value.
func (g *loadGen) scrape() (map[string]float64, error) {
	resp, err := g.client.Get(g.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	lines := bufio.NewScanner(resp.Body)
	for lines.Scan() {
		name, val, ok := strings.Cut(lines.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, lines.Err()
}

// serveRep is one rep on a fresh server: start it, play the job list, and
// shut it down.
type serveRep struct {
	Start, Wall time.Duration
	RSSMB       float64
	Ops         []op
	// Before and After are the server's /metrics around the jobs, read
	// only when scraping is asked for.
	Before, After map[string]float64
}

func runServeRep(bin string, in *inputs, rec *spanRecorder, scrape bool) (rep serveRep, err error) {
	t := time.Now()
	s, err := startServer(bin)
	if err != nil {
		return rep, err
	}
	rep.Start = time.Since(t)
	defer func() {
		rss, serr := s.stop()
		rep.RSSMB = rss
		if err == nil {
			err = serr
		}
	}()
	g := newLoadGen(s.base)
	if scrape {
		if rep.Before, err = g.scrape(); err != nil {
			return rep, err
		}
	}
	rep.Ops, rep.Wall = g.runJobs(in, rec)
	if scrape {
		rep.After, err = g.scrape()
	}
	g.tr.CloseIdleConnections()
	return rep, err
}

// runServe plays reps on fresh servers until another rep would likely
// overrun the budget (at least one rep runs).
func runServe(bin string, in *inputs, budget time.Duration) ([]serveRep, error) {
	var reps []serveRep
	start := time.Now()
	for {
		rep, err := runServeRep(bin, in, nil, false)
		if err != nil {
			return reps, err
		}
		reps = append(reps, rep)
		if !roomForAnother(start, len(reps), budget) {
			return reps, nil
		}
	}
}
