package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	goruntime "runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/runtime"
	"repro/internal/server"
	"repro/internal/source"
	"repro/internal/stream"
	"repro/internal/telemetry"
	"repro/internal/workload"
	"repro/internal/xacmlplus"
)

// sutShards is the server's shard count: one per CPU of the 2-CPU
// host the benchmark was defined on, fixed so runs on other hosts
// stay comparable.
const sutShards = 2

// sutReport is what the server process prints when its stdin closes.
type sutReport struct {
	PeakRSSKB  int64 `json:"peak_rss_kb"`
	GOMAXPROCS int   `json:"gomaxprocs"`
	// The fields below are filled only by a traced server.
	PublishCalls   int     `json:"publish_calls"`
	PublishCallP50 float64 `json:"publish_call_p50_us"`
	QueueDepthMax  int     `json:"queue_depth_max"`
	SubDropped     uint64  `json:"sub_dropped"`
	DeployP50      float64 `json:"deploy_p50_us"`
	WithdrawP50    float64 `json:"withdraw_p50_us"`
}

// sutMain is the system under test, wired from the public constructors
// the way `exacmld -embedded -shards 2 -ops-bind …` wires them: a
// telemetry registry served by the ops listener, core.Boot with it,
// then server.New → AttachPublisher → EnableTelemetry → Listen. It
// registers weather and gps (partitioned by deviceid) as exacmld does
// and, for the access workload, the Table 3 streams, which the wire
// API cannot create. It prints "READY <addr> <ops addr>" and serves
// until its stdin closes, then prints "REPORT <json>" and exits. Each
// "mark" line on stdin is answered with "MARK <bytes> <ns>": the heap
// bytes allocated and the CPU time used so far.
func sutMain(args []string) int {
	fs := flag.NewFlagSet("sut", flag.ContinueOnError)
	wl := fs.String("workload", "", "workload whose streams to register")
	seed := fs.Int64("seed", 1, "access workload seed")
	traced := fs.Bool("trace", false, "wrap runtime and engine in timing wrappers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	reg := telemetry.NewRegistry()
	ops, err := telemetry.ServeOps("127.0.0.1:0", telemetry.OpsOptions{Registry: reg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sut: %v\n", err)
		return 1
	}
	defer ops.Close()
	fw, err := core.Boot("cloud", core.Options{Shards: sutShards, Policy: runtime.Block, Metrics: reg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "sut: boot: %v\n", err)
		return 1
	}
	defer fw.Close()
	if err := registerStreams(fw, *wl, *seed); err != nil {
		fmt.Fprintf(os.Stderr, "sut: %v\n", err)
		return 1
	}

	var pub server.Publisher = fw.Runtime
	var tp *timedPublisher
	var te *timedEngine
	var sampler *depthSampler
	if *traced {
		tp = &timedPublisher{Runtime: fw.Runtime}
		pub = tp
		te = &timedEngine{inner: fw.PEP.Engine}
		fw.PEP.Engine = te
		sampler = startDepthSampler(fw.Runtime, 10*time.Millisecond)
	}
	srv := server.New(fw.PEP, nil)
	srv.AttachPublisher(pub)
	srv.EnableTelemetry(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sut: listen: %v\n", err)
		return 1
	}
	fmt.Printf("READY %s %s\n", addr, ops.Addr())

	// Serve until the generator closes our stdin.
	in := bufio.NewScanner(os.Stdin)
	for in.Scan() {
		if in.Text() == "mark" {
			var ms goruntime.MemStats
			goruntime.ReadMemStats(&ms)
			fmt.Printf("MARK %d %d\n", ms.TotalAlloc, cpuTime())
		}
	}
	srv.Close()

	rep := sutReport{PeakRSSKB: peakRSSKB(), GOMAXPROCS: goruntime.GOMAXPROCS(0)}
	if *traced {
		rep.QueueDepthMax = sampler.stop()
		tp.fill(&rep)
		te.fill(&rep)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sut: %v\n", err)
		return 1
	}
	fmt.Printf("REPORT %s\n", out)
	return 0
}

// registerStreams creates the streams `exacmld -embedded` pre-registers
// (weather on one shard, gps partitioned by deviceid) plus, for the
// access workload, the Table 3 streams.
func registerStreams(fw *core.Framework, wl string, seed int64) error {
	if err := fw.RegisterStream("weather", source.WeatherSchema()); err != nil {
		return fmt.Errorf("create weather stream: %w", err)
	}
	if err := fw.RegisterPartitionedStream("gps", source.GPSSchema(), "deviceid"); err != nil {
		return fmt.Errorf("create gps stream: %w", err)
	}
	if wl != wlAccess {
		return nil
	}
	w, err := workload.Generate(accessParams(seed))
	if err != nil {
		return err
	}
	for _, name := range w.Streams {
		if err := fw.RegisterStream(name, w.Schema); err != nil {
			return fmt.Errorf("create %s: %w", name, err)
		}
	}
	return nil
}

// timedPublisher times every runtime publish call the server makes
// and keeps the subscriptions it hands out, for their drop counters.
type timedPublisher struct {
	*runtime.Runtime
	mu    sync.Mutex
	calls []float64 // µs
	subs  []*runtime.Subscription
}

func (p *timedPublisher) PublishBatchVerdict(name string, ts []stream.Tuple) (runtime.PublishVerdict, error) {
	start := time.Now()
	v, err := p.Runtime.PublishBatchVerdict(name, ts)
	us := micros(time.Since(start))
	p.mu.Lock()
	p.calls = append(p.calls, us)
	p.mu.Unlock()
	return v, err
}

func (p *timedPublisher) Subscribe(idOrHandle string) (*runtime.Subscription, error) {
	sub, err := p.Runtime.Subscribe(idOrHandle)
	if err == nil {
		p.mu.Lock()
		p.subs = append(p.subs, sub)
		p.mu.Unlock()
	}
	return sub, err
}

func (p *timedPublisher) fill(rep *sutReport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	rep.PublishCalls = len(p.calls)
	rep.PublishCallP50 = median(p.calls)
	for _, s := range p.subs {
		rep.SubDropped += s.Dropped()
	}
}

// timedEngine times the PEP's deploys and withdrawals on the runtime.
type timedEngine struct {
	inner     xacmlplus.StreamEngine
	mu        sync.Mutex
	deploys   []float64 // µs
	withdraws []float64 // µs
}

func (e *timedEngine) StreamSchema(name string) (*stream.Schema, error) {
	return e.inner.StreamSchema(name)
}

func (e *timedEngine) DeployScript(script string) (string, string, error) {
	start := time.Now()
	id, handle, err := e.inner.DeployScript(script)
	us := micros(time.Since(start))
	e.mu.Lock()
	e.deploys = append(e.deploys, us)
	e.mu.Unlock()
	return id, handle, err
}

func (e *timedEngine) Withdraw(idOrHandle string) error {
	start := time.Now()
	err := e.inner.Withdraw(idOrHandle)
	us := micros(time.Since(start))
	e.mu.Lock()
	e.withdraws = append(e.withdraws, us)
	e.mu.Unlock()
	return err
}

func (e *timedEngine) fill(rep *sutReport) {
	e.mu.Lock()
	defer e.mu.Unlock()
	rep.DeployP50 = median(e.deploys)
	rep.WithdrawP50 = median(e.withdraws)
}

// depthSampler polls Runtime.Stats for the deepest shard queue.
type depthSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	max  int
}

func startDepthSampler(rt *runtime.Runtime, every time.Duration) *depthSampler {
	s := &depthSampler{done: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-s.done:
				return
			case <-tick.C:
				for _, sh := range rt.Stats().Shards {
					s.max = max(s.max, sh.QueueDepth)
				}
			}
		}
	}()
	return s
}

// stop ends sampling and returns the deepest queue seen.
func (s *depthSampler) stop() int {
	close(s.done)
	s.wg.Wait()
	return s.max
}

// peakRSSKB reads the process's resident-set high-water mark (VmHWM).
func peakRSSKB() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// sutProc is a running server process, seen from the load generator.
type sutProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	lines chan string // stdout lines; closed at EOF
	addr  string      // data server
	ops   string      // ops HTTP listener
}

// startSUT launches this binary in server mode and waits for READY.
func startSUT(cfg config, wl string, opts passOpts) (*sutProc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"sut", "-workload", wl, "-seed", strconv.FormatInt(cfg.seed, 10)}
	if opts.traced {
		args = append(args, "-trace")
	}
	cmd := exec.Command(self, args...)
	cmd.Env = os.Environ()
	if opts.singleCore {
		cmd.Env = append(cmd.Env, "GOMAXPROCS=1")
	}
	cmd.Stderr = os.Stderr
	// The server dies with the generator even if the generator is
	// killed before it can stop it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	// Capacity 16: the server prints a handful of lines in its life.
	p := &sutProc{cmd: cmd, stdin: stdin, lines: make(chan string, 16)}
	go func() {
		defer close(p.lines)
		sc := bufio.NewScanner(stdout)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			p.lines <- sc.Text()
		}
	}()
	line, err := p.expect("READY ", 60*time.Second)
	if err != nil {
		p.kill()
		return nil, err
	}
	var ok bool
	if p.addr, p.ops, ok = strings.Cut(line, " "); !ok {
		p.kill()
		return nil, fmt.Errorf("server printed %q, want READY <addr> <ops addr>", line)
	}
	return p, nil
}

// expect returns the rest of the first stdout line with the prefix.
func (p *sutProc) expect(prefix string, timeout time.Duration) (string, error) {
	deadline := time.After(timeout)
	for {
		select {
		case line, ok := <-p.lines:
			if !ok {
				return "", fmt.Errorf("server exited before printing %q", strings.TrimSpace(prefix))
			}
			if rest, found := strings.CutPrefix(line, prefix); found {
				return rest, nil
			}
		case <-deadline:
			return "", fmt.Errorf("server printed no %q within %v", strings.TrimSpace(prefix), timeout)
		}
	}
}

// usage is what the server allocated and what both processes spent so
// far; the difference of two marks is a load's cost.
type usage struct {
	alloc uint64        // server heap bytes allocated
	cpu   time.Duration // server plus generator CPU time
}

// mark reads the server's heap and CPU counters and the generator's
// CPU time.
func (p *sutProc) mark() (usage, error) {
	if _, err := io.WriteString(p.stdin, "mark\n"); err != nil {
		return usage{}, fmt.Errorf("server mark: %w", err)
	}
	line, err := p.expect("MARK ", 10*time.Second)
	if err != nil {
		return usage{}, err
	}
	var u usage
	var ns int64
	if _, err := fmt.Sscan(line, &u.alloc, &ns); err != nil {
		return usage{}, fmt.Errorf("server mark %q: %w", line, err)
	}
	u.cpu = time.Duration(ns) + time.Duration(cpuTime())
	return u, nil
}

// since is the cost between two marks.
func (u usage) since(u0 usage) usage { return usage{u.alloc - u0.alloc, u.cpu - u0.cpu} }

// cpuTime is this process's CPU time so far (user plus system), in ns.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// subDropped sums the server's exacml_engine_subscription_dropped_total
// series from its ops listener's /metrics: output tuples its engines
// shed because a subscriber lagged.
func (p *sutProc) subDropped() (float64, error) {
	resp, err := http.Get("http://" + p.ops + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("/metrics: %s", resp.Status)
	}
	total, seen := 0.0, false
	for _, line := range strings.Split(string(body), "\n") {
		if !strings.HasPrefix(line, "exacml_engine_subscription_dropped_total") {
			continue
		}
		f := strings.Fields(line)
		v, err := strconv.ParseFloat(f[len(f)-1], 64)
		if err != nil {
			return 0, fmt.Errorf("/metrics line %q: %w", line, err)
		}
		total, seen = total+v, true
	}
	if !seen {
		return 0, fmt.Errorf("/metrics has no exacml_engine_subscription_dropped_total series")
	}
	return total, nil
}

// stop closes the server's stdin, collects its report and waits for it
// to exit.
func (p *sutProc) stop() (sutReport, error) {
	_ = p.stdin.Close()
	line, err := p.expect("REPORT ", 30*time.Second)
	if err != nil {
		p.kill()
		return sutReport{}, err
	}
	for range p.lines {
	}
	if err := p.cmd.Wait(); err != nil {
		return sutReport{}, fmt.Errorf("server exit: %w", err)
	}
	var rep sutReport
	if err := json.Unmarshal([]byte(line), &rep); err != nil {
		return sutReport{}, fmt.Errorf("server report: %w", err)
	}
	return rep, nil
}

// kill stops the server without a report and waits for it to exit.
func (p *sutProc) kill() {
	_ = p.cmd.Process.Kill()
	_ = p.stdin.Close()
	for range p.lines {
	}
	_ = p.cmd.Wait()
}
