package prism

import (
	"bytes"
	"encoding/binary"
	"net"
	"testing"
	"time"

	"dif/internal/model"
)

// helloBytes is the one-time hello a connection from host opens with,
// at the given wire major version.
func helloBytes(host string, major byte) []byte {
	b := append([]byte(helloMagic), major, wireMinor, byte(len(host)))
	return append(b, host...)
}

// frameBytes length-prefixes data as Send puts it on the wire.
func frameBytes(data []byte) []byte {
	return append(binary.BigEndian.AppendUint32(nil, uint32(len(data))), data...)
}

// wire concatenates stream fragments.
func wire(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// FuzzDecodeEvent throws corrupt and truncated byte strings at the event
// decoder: it must return an error or an event, never panic.
func FuzzDecodeEvent(f *testing.F) {
	valid, err := EncodeEvent(Event{
		Name: "app.probe", Target: "c1", SizeKB: 0.2, Payload: "e1",
		Seq: 7, SeqOrigin: "h1", SeqInc: 2,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Add(append(append([]byte(nil), valid...), 0xde, 0xad))
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = DecodeEvent(data) // must not panic
	})
}

// FuzzTCPReadLoop feeds arbitrary bytes into a live TCP transport's
// frame reader: corrupt, truncated, or adversarial streams must neither
// panic nor wedge the read loop — Close always completes and the
// transport keeps serving well-formed frames from other connections.
func FuzzTCPReadLoop(f *testing.F) {
	hello := helloBytes("peer", wireMajor)
	data := frameBytes([]byte("payload"))
	oversize := binary.BigEndian.AppendUint32(nil, maxFrameBytes+1)
	f.Add(hello)                                       // hello only
	f.Add(data)                                        // frame before hello
	f.Add(wire(helloBytes("peer", wireMajor+1), data)) // unknown version
	f.Add(wire(hello, frameBytes(nil), data))          // zero-length frame
	f.Add(wire(hello, oversize, []byte("x")))          // length > maxFrameBytes
	f.Add(wire(hello, data, data[:2]))                 // truncated header
	f.Add(wire(hello, data[:len(data)-3]))             // truncated body
	f.Add(hello[:len(hello)-2])                        // truncated hello
	f.Add(helloBytes("", wireMajor))                   // empty host
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	// Frames are opaque to the transport; what rides in them today is
	// the binary event codec and gob. Mix the two, truncate one inside
	// its frame, and splice a bare event (no length prefix) on the end.
	binEvent, err := EncodeEvent(Event{
		Name: "app.req", Target: "c1", Seq: 3, SeqOrigin: "peer", SeqInc: 1,
	})
	if err != nil {
		f.Fatal(err)
	}
	gobEvent, err := EncodeEvent(Event{Name: "app.req", Target: "c1", Payload: "gob"})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(wire(hello, frameBytes(binEvent), frameBytes(gobEvent), frameBytes(binEvent)))
	f.Add(wire(hello, frameBytes(gobEvent), frameBytes(binEvent[:len(binEvent)/2])))
	f.Add(wire(hello, frameBytes(gobEvent), binEvent))

	f.Fuzz(func(t *testing.T, raw []byte) {
		tr, err := NewTCPTransport("fz", "127.0.0.1:0")
		if err != nil {
			t.Skip("no loopback listener available")
		}
		got := make(chan []byte, 16)
		tr.SetReceiver(func(from model.HostID, data []byte) {
			select {
			case got <- bytes.Clone(data):
			default:
			}
		})

		conn, err := net.Dial("tcp", tr.Addr())
		if err != nil {
			tr.Close()
			t.Skip("dial failed")
		}
		conn.Write(raw)
		conn.Close()

		// The transport must still serve a well-formed connection.
		good, err := net.Dial("tcp", tr.Addr())
		if err == nil {
			good.Write(wire(helloBytes("good", wireMajor), frameBytes([]byte("ok"))))
			deadline := time.After(2 * time.Second)
		wait:
			for {
				select {
				case d := <-got:
					if string(d) == "ok" {
						break wait
					}
				case <-deadline:
					t.Error("well-formed frame never delivered after fuzz input")
					break wait
				}
			}
			good.Close()
		}

		done := make(chan struct{})
		go func() {
			tr.Close()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("transport Close wedged after fuzz input")
		}
	})
}
