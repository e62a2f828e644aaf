package obs

import (
	"net"
	"testing"
	"time"
)

// TestDebugServerReleasesPort is the regression test for the listener
// leak: closing the debug server must free its port for immediate
// reuse. Before the fix the listener survived the server for the
// process lifetime.
func TestDebugServerReleasesPort(t *testing.T) {
	t.Run("close", func(t *testing.T) {
		d, err := StartDebug("127.0.0.1:0", nil)
		if err != nil {
			t.Fatal(err)
		}
		addr := d.Addr()
		if err := d.Close(); err != nil {
			t.Fatalf("stopping debug server: %v", err)
		}
		// The exact address must be bindable again. A few retries
		// absorb kernel-level teardown latency, but the listener
		// itself must already be closed.
		var ln net.Listener
		for i := 0; i < 50; i++ {
			if ln, err = net.Listen("tcp", addr); err == nil {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err != nil {
			t.Fatalf("port %s not released after close: %v", addr, err)
		}
		ln.Close()
	})
}
