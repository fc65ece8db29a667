package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
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
