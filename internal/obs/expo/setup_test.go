package expo

import (
	"net"
	"net/http"
	"testing"

	"vacsem/internal/obs"
)

// freePort reserves then releases a loopback port, returning its
// address for a server to bind immediately after.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// Close must wait out the serve loop so the port is immediately
// reusable — the teardown leak this PR fixes.
func TestServerCloseReleasesPort(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if _, err := http.Get("http://" + addr + "/"); err != nil {
		t.Fatalf("server not serving: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// We owned this port a microsecond ago; a clean shutdown means we
	// can bind it again right now.
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released after Close: %v", err)
	}
	ln.Close()
}

// Setup's stop func tears the whole stack down: the introspection
// listener is closed and its port released.
func TestSetupTeardown(t *testing.T) {
	addr := freePort(t)
	stop, err := Setup(CLIConfig{IntrospectAddr: addr})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatalf("introspection server not serving: %v", err)
	}
	resp.Body.Close()

	if err := stop(); err != nil {
		t.Fatalf("stop: %v", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("introspection port not released after stop: %v", err)
	}
	ln.Close()
}

// A zero config is a no-op with a working stop.
func TestSetupZero(t *testing.T) {
	stop, err := Setup(CLIConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if obs.Enabled() {
		t.Error("zero config installed a tracer")
	}
	if err := stop(); err != nil {
		t.Errorf("stop: %v", err)
	}
}
