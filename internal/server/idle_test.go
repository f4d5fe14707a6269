package server

import (
	"bufio"
	"io"
	"net"
	"testing"
	"time"
)

// TestReadTimeoutIdleLimit: with ReadTimeout 400 ms and lazily re-armed
// deadlines, an idle connection is cut no earlier than 7/8 of it after
// its last request and no later than ReadTimeout plus scheduling slack
// after its last reply, and a client sending one request every 150 ms
// for 2 s is never cut.
func TestReadTimeoutIdleLimit(t *testing.T) {
	const limit, slack = 400 * time.Millisecond, 250 * time.Millisecond
	_, addr := startServer(t, Config{Workers: 2, ReadTimeout: limit})
	t.Run("idle", func(t *testing.T) {
		t.Parallel()
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		// The second request comes too soon after the first to re-arm
		// the deadline, so the cut also checks the lazy lower bound.
		br := bufio.NewReader(nc)
		var sent, replied time.Time
		for i := 0; i < 2; i++ {
			sent = time.Now()
			if err := writeMessage(nc, &Message{Op: OpRSEncode, ID: uint64(i), Payload: make([]byte, 239)}); err != nil {
				t.Fatal(err)
			}
			if _, err := readMessage(br, DefaultMaxPayload); err != nil {
				t.Fatal(err)
			}
			replied = time.Now()
		}
		nc.SetReadDeadline(time.Now().Add(5 * limit))
		if _, err := br.ReadByte(); err != io.EOF {
			t.Fatalf("idle connection: read %v, want EOF from the server", err)
		}
		if sinceSend, sinceReply := time.Since(sent), time.Since(replied); sinceSend < limit*7/8 || sinceReply > limit+slack {
			t.Errorf("idle connection cut %v after the last request, %v after its reply; want >= %v and <= %v",
				sinceSend, sinceReply, limit*7/8, limit+slack)
		}
	})
	t.Run("steady", func(t *testing.T) {
		t.Parallel()
		c := dialT(t, addr)
		for start := time.Now(); time.Since(start) < 2*time.Second; time.Sleep(150 * time.Millisecond) {
			if _, err := c.RSEncode(make([]byte, 239)); err != nil {
				t.Fatalf("after %v: %v", time.Since(start), err)
			}
		}
	})
}
