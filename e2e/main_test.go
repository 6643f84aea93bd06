//go:build e2e

package e2e

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// binDir holds the CLIs TestMain builds.
var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "hsfq-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	build := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
	build.Dir = ".."
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building the CLIs and examples: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	binDir = dir
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// bin is the path of a built CLI.
func bin(name string) string { return filepath.Join(binDir, name) }

// daemonTimeout bounds each step of a daemon's life: logging its
// address, turning ready, and draining after SIGTERM.
const daemonTimeout = 10 * time.Second

// listenRE matches hsfqd's startup line, which names the bound address.
var listenRE = regexp.MustCompile(`listening on (\S+) `)

// daemon is one hsfqd process.
type daemon struct {
	URL    string
	cmd    *exec.Cmd
	stderr *daemonLog
	exited chan struct{} // closed once the process is reaped
	err    error         // the exit error, set before exited closes
	done   bool          // the test stopped or killed it itself
}

// startDaemon runs hsfqd on an ephemeral port with the given flags and
// waits until /readyz answers 200. On cleanup the daemon gets SIGTERM
// and must exit 0 within daemonTimeout; if the test failed it is killed
// instead and its stderr logged.
func startDaemon(t *testing.T, flags ...string) *daemon {
	t.Helper()
	addr := make(chan string, 1)
	d := &daemon{stderr: &daemonLog{addr: addr}, exited: make(chan struct{})}
	d.cmd = exec.Command(bin("hsfqd"), append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		switch {
		case d.done:
		case t.Failed():
			d.kill()
		default:
			if err := d.stop(); err != nil {
				t.Error(err)
			}
		}
		if t.Failed() {
			t.Logf("hsfqd stderr:\n%s", d.stderr)
		}
	})

	select {
	case a := <-addr:
		d.URL = "http://" + a
	case <-d.exited:
		t.Fatalf("hsfqd exited before listening: %v", d.err)
	case <-time.After(daemonTimeout):
		t.Fatalf("hsfqd logged no address within %v", daemonTimeout)
	}
	for deadline := time.Now().Add(daemonTimeout); ; time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get(d.URL + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("hsfqd at %s not ready within %v", d.URL, daemonTimeout)
		}
	}
}

// stop sends SIGTERM and requires a clean drain: exit status 0 within
// daemonTimeout.
func (d *daemon) stop() error {
	d.done = true
	// Shutdown counts a connection that has not sent a request as busy
	// for its first 5 s, and the client's transport may hold such a
	// spare connection in its idle pool: close those first.
	http.DefaultClient.CloseIdleConnections()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.exited:
		if d.err != nil {
			return fmt.Errorf("hsfqd did not drain cleanly: %w", d.err)
		}
		return nil
	case <-time.After(daemonTimeout):
		d.kill()
		return fmt.Errorf("hsfqd did not exit within %v of SIGTERM", daemonTimeout)
	}
}

// kill sends SIGKILL and waits for the process to be reaped.
func (d *daemon) kill() {
	d.done = true
	d.cmd.Process.Kill()
	<-d.exited
}

// daemonLog keeps a daemon's stderr. It accepts every write, so the
// daemon never blocks on a full pipe, and sends the address from the
// first "listening on" line to addr.
type daemonLog struct {
	mu   sync.Mutex
	buf  bytes.Buffer
	addr chan<- string // nil once the address is sent
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.buf.Write(p)
	if l.addr != nil {
		if m := listenRE.FindSubmatch(l.buf.Bytes()); m != nil {
			l.addr <- string(m[1])
			l.addr = nil
		}
	}
	return len(p), nil
}

func (l *daemonLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// scenario is a two-class job: an MPEG decoder under SFQ beside a loop
// hog under round robin. Each seed is a distinct job (a distinct content
// address) of the same shape. Engine cost scales with horizon/quantum,
// the number of dispatch events.
func scenario(seed int, horizon, quantum string) string {
	return fmt.Sprintf(`{
	  "rate_mips": 100,
	  "horizon": %q,
	  "seed": %d,
	  "nodes": [
	    {"path": "/soft", "weight": 3, "leaf": "sfq", "quantum": %q},
	    {"path": "/be", "weight": 1, "leaf": "rr"}
	  ],
	  "threads": [
	    {"name": "dec", "leaf": "/soft", "weight": 2, "program": {"kind": "mpeg", "loop": true}},
	    {"name": "hog", "leaf": "/be", "program": {"kind": "loop"}}
	  ]
	}`, horizon, seed, quantum)
}

// request POSTs a scenario to /v1/simulate as tenant ("" sends no
// tenant header) and returns the response body. A 429 is load shedding
// and is retried; any other status than 200 is an error.
func request(base, tenant, body string) ([]byte, error) {
	for range 400 {
		status, b, err := postOnce(base, tenant, body)
		switch {
		case err != nil:
			return nil, err
		case status == http.StatusOK:
			return b, nil
		case status == http.StatusTooManyRequests:
			time.Sleep(5 * time.Millisecond)
		default:
			return nil, fmt.Errorf("status %d: %s", status, b)
		}
	}
	return nil, fmt.Errorf("starved: still shed after 400 attempts")
}

// postOnce is a single POST to /v1/simulate, with no retry.
func postOnce(base, tenant, body string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, base+"/v1/simulate", strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}
