package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"frac"
)

// startServer serves srv on a loopback port until the test ends.
func startServer(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

func okHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {})
}

// TestServerDisconnectsSlowHeaders: a client that sends half a request line
// and stalls is disconnected once the header timeout passes, instead of
// holding a connection and a goroutine forever.
func TestServerDisconnectsSlowHeaders(t *testing.T) {
	srv := newHTTPServer(okHandler())
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout ||
		srv.IdleTimeout != idleTimeout || srv.MaxHeaderBytes != maxHeaderBytes || srv.WriteTimeout != 0 {
		t.Fatalf("server limits %v/%v/%v/%d write %v, want %v/%v/%v/%d and no write timeout",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, srv.MaxHeaderBytes, srv.WriteTimeout,
			readHeaderTimeout, readTimeout, idleTimeout, maxHeaderBytes)
	}
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	addr := startServer(t, srv)

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("POST /v1/sc")); err != nil {
		t.Fatal(err)
	}
	// The server may answer with an error status before it hangs up; only
	// the hang-up matters.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	reply, err := io.ReadAll(conn)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("server still holds the connection 10s after a half-sent request line (sent %q)", reply)
	}
}

// TestServerRejectsHugeHeaders: a request whose headers pass the
// MaxHeaderBytes limit gets 431.
func TestServerRejectsHugeHeaders(t *testing.T) {
	addr := startServer(t, newHTTPServer(okHandler()))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := "GET /healthz HTTP/1.1\r\nHost: x\r\nX-Pad: " + strings.Repeat("a", 128<<10) + "\r\n\r\n"
	if _, err := conn.Write([]byte(req)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestHeaderFieldsTooLarge {
		t.Errorf("128 KiB header: status %d, want %d", resp.StatusCode, http.StatusRequestHeaderFieldsTooLarge)
	}
}

// TestMain runs fracserve's main instead of the tests when the test binary's
// first argument is "fracserve", so a test can run the command as a child
// process. The child drops the testing package's flags first: the config
// hash covers every flag on the command line.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "fracserve" {
		os.Args = os.Args[1:]
		flag.CommandLine = flag.NewFlagSet("fracserve", flag.ExitOnError)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runFracserve runs fracserve as a child process and returns its exit
// status and output.
func runFracserve(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], append([]string{"fracserve"}, args...)...)
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatalf("fracserve %s: %v", strings.Join(args, " "), err)
	}
	return cmd.ProcessState.ExitCode(), string(out)
}

// TestRejectsPositionalArguments: flag parsing stops at the first argument
// that is not a flag, so a flag after one would be dropped without a word.
// fracserve takes no arguments, so it exits 2 naming the first one, before
// it loads a model or listens.
func TestRejectsPositionalArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "m=missing.frac", "extra", "-addr", "127.0.0.1:0"},
		{"extra"},
	} {
		if code, out := runFracserve(t, args...); code != 2 || !strings.Contains(out, `unexpected argument "extra"`) {
			t.Errorf("fracserve %s: exit status %d, output %q; want 2 naming \"extra\"", strings.Join(args, " "), code, out)
		}
	}
}

// TestVersion: -version prints the build and exits 0 without loading a
// model, so it needs no -model.
func TestVersion(t *testing.T) {
	if code, out := runFracserve(t, "-version"); code != 0 || !strings.HasPrefix(out, "fracserve version ") {
		t.Errorf("fracserve -version: exit status %d, output %q; want 0 and \"fracserve version …\"", code, out)
	}
}

// configHash returns the config hash fracserve's manifest records for args.
// The child's -debug-addr names a port this test holds, so it exits 1 at
// the debug server's bind, before it loads a model, with its manifest
// written to -metrics-out.
func configHash(t *testing.T, args ...string) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	metrics := filepath.Join(t.TempDir(), "m.json")
	code, out := runFracserve(t, append([]string{"-debug-addr", ln.Addr().String(), "-metrics-out", metrics}, args...)...)
	if code != 1 || !strings.Contains(out, "-debug-addr") {
		t.Fatalf("fracserve %s: exit status %d, output %q; want 1 at the debug server's bind", strings.Join(args, " "), code, out)
	}
	var doc struct {
		Manifest struct {
			ConfigHash string `json:"config_hash"`
		} `json:"manifest"`
	}
	blob, err := os.ReadFile(metrics)
	if err == nil {
		err = json.Unmarshal(blob, &doc)
	}
	if err != nil {
		t.Fatal(err)
	}
	return doc.Manifest.ConfigHash
}

// TestConfigHashCoversEveryFlag: changing any one of fracserve's flags
// changes the config hash its manifest records, so two serve sessions'
// result files compare equal only under the same configuration.
func TestConfigHashCoversEveryFlag(t *testing.T) {
	base := configHash(t)
	var c config
	fs := flag.NewFlagSet("fracserve", flag.ContinueOnError)
	c.register(fs)
	fs.VisitAll(func(f *flag.Flag) {
		v := "m=other.frac" // -model, the one flag that is not a flag.Getter
		if g, ok := f.Value.(flag.Getter); ok {
			switch d := g.Get().(type) {
			case bool:
				v = strconv.FormatBool(!d)
			case int:
				v = strconv.Itoa(d + 1)
			case int64:
				v = strconv.FormatInt(d+1, 10)
			case string:
				v = d + "0"
			default:
				t.Fatalf("-%s: no changed value for a %T", f.Name, d)
			}
		}
		if got := configHash(t, "-"+f.Name+"="+v); got == base {
			t.Errorf("-%s=%s: config hash %s, the same as with the default", f.Name, v, got)
		}
	})
}

// TestSIGTERMDrainsAndExitsZero: once fracserve prints its listening line it
// handles SIGTERM, drains and exits 0; a supervisor (perfbench, the CI
// serve smoke) reads any other exit status as a failed run.
func TestSIGTERMDrainsAndExitsZero(t *testing.T) {
	const n, f = 12, 4
	schema := make(frac.Schema, f)
	for j := range schema {
		schema[j] = frac.Feature{Name: fmt.Sprintf("g%d", j), Kind: frac.Real}
	}
	d := frac.NewDataset("train", schema, n)
	src := frac.NewRNG(1)
	for i := 0; i < n; i++ {
		base := src.Normal(0, 1)
		for j := range d.Sample(i) {
			d.Sample(i)[j] = base + src.Normal(0, 0.5)
		}
	}
	model, err := frac.Train(d, frac.FullTerms(f), frac.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := frac.SaveModel(&buf, model); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "m.frac")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "fracserve", "-addr", "127.0.0.1:0", "-model", "m="+path)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	kill := time.AfterFunc(30*time.Second, func() { cmd.Process.Kill() })
	defer kill.Stop()
	lines, listening := bufio.NewScanner(stdout), false
	for !listening && lines.Scan() {
		listening = strings.HasPrefix(lines.Text(), "fracserve: listening on http://")
	}
	if !listening {
		t.Fatalf("fracserve exited before listening: %v", cmd.Wait())
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("fracserve after SIGTERM: %v, want exit status 0", err)
	}
}
