package net

import (
	stdnet "net"
	"testing"
	"time"

	"distkcore/internal/codec"
)

// FuzzReadRecord drives arbitrary bytes through the Conn record reader —
// the first thing that touches anything a peer sends. The invariant is
// modest and absolute: any byte stream either yields records or an error,
// never a panic, never a hang (the 1s IO timeout turns a stuck read into
// an error), and never an allocation beyond the codec.MaxRecord cap.
func FuzzReadRecord(f *testing.F) {
	f.Add(codec.AppendRecord(nil, []byte{recHello, 1, 2, 3}))
	f.Add(codec.AppendRecord(nil, []byte{RecDeltaPush, 0, 0}))
	f.Add(codec.AppendRecord(codec.AppendRecord(nil, []byte{recStep, 1}), []byte{recStreamDone, 1, 0, 0}))
	f.Add([]byte{0})                                                          // empty record: an error, not a crash
	f.Add([]byte{0x05})                                                       // length with no payload
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // hostile length
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := stdnet.Pipe()
		defer a.Close()
		go func() {
			_, _ = b.Write(data)
			_ = b.Close()
		}()
		c := NewConn(a)
		c.SetIOTimeout(time.Second)
		for {
			_, _, err := c.ReadRecord()
			if err != nil {
				return
			}
		}
	})
}
