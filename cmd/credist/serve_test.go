package main

import (
	"io"
	"net"
	"net/http"
	"testing"
)

// TestNewHTTPServerTimeouts pins the query server's connection policy:
// header, request and idle timeouts set (so a slowloris client cannot pin
// a connection), no write timeout (so long /seeds growths and /ingest
// runs finish), and the server actually serving its handler.
func TestNewHTTPServerTimeouts(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { io.WriteString(w, "ok") })
	srv := newHTTPServer("127.0.0.1:0", h)
	if srv.Addr != "127.0.0.1:0" {
		t.Errorf("Addr = %q", srv.Addr)
	}
	if srv.ReadHeaderTimeout != readHeaderTimeout || srv.ReadTimeout != readTimeout || srv.IdleTimeout != idleTimeout {
		t.Errorf("timeouts: header %v, read %v, idle %v; want %v, %v, %v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout, readHeaderTimeout, readTimeout, idleTimeout)
	}
	if readHeaderTimeout <= 0 || readTimeout < readHeaderTimeout || idleTimeout <= 0 {
		t.Errorf("timeouts must be positive with read >= header: header %v, read %v, idle %v",
			readHeaderTimeout, readTimeout, idleTimeout)
	}
	if srv.WriteTimeout != 0 {
		t.Errorf("WriteTimeout = %v, want none", srv.WriteTimeout)
	}

	ln, err := net.Listen("tcp", srv.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	resp, err := http.Get("http://" + ln.Addr().String() + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, _ := io.ReadAll(resp.Body); resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("GET: %d %q", resp.StatusCode, body)
	}
}
