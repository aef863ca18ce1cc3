package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// FuzzGatewayRequest feeds arbitrary bytes to the gateway's NDJSON request
// reader, each input on a fresh connection of one gateway: nothing may
// panic, every frame the gateway sends back is one JSON response, a
// malformed frame is answered with an error frame and then a close, and a
// second client is served normally afterwards.
func FuzzGatewayRequest(f *testing.F) {
	for _, seed := range []string{
		`{"op":"hello","id":"h","tenant":"t"}` + "\n",
		`{"op":"insert","id":"1","collection":"articles","doc":{"_id":"1","year":2020}}` + "\n",
		`{"op":"subscribe","id":"s","query":{"collection":"articles","filter":{"year":{"$gte":2018}}}}` + "\n",
		`{"op":"update","id":"2","collection":"articles","key":"1","update":{"$set":{"year":2022}}}` + "\n",
		`{"op":"delete","id":"3","collection":"articles","key":"1"}` + "\n",
		`{"op":"query","id":"4","query":{"collection":"articles"}}` + "\n",
		`{"op":"subscribe","id":"top","query":{"collection":"scores","sort":[{"path":"score","desc":true}],"limit":3}}` + "\n" +
			`{"op":"unsubscribe","id":"top"}` + "\n",
		`{"op":"subscribe","id":"x"}` + "\n",
		`{"op":"frobnicate","id":"y"}` + "\n",
		`{"op":"insert","id":"5","collection":"c","doc":{"_id":"big","n":9007199254740993}}` + "\n",
		`{"op":"insert","id":"6","collection":"c","doc":{"x":1}}`,
		`{"op":`,
		`{"op":1}`,
		"not json\n",
	} {
		f.Add([]byte(seed))
	}

	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	cluster, err := core.NewCluster(bus, core.Options{})
	if err != nil {
		f.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		f.Fatal(err)
	}
	srv, err := appserver.New(storage.Open(storage.Options{}), bus, appserver.Options{})
	if err != nil {
		f.Fatal(err)
	}
	ln := NewMemListener()
	gw, err := ServeListener(srv, ln, Options{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		_ = gw.Close()
		_ = srv.Close()
		cluster.Stop()
		_ = bus.Close()
	})
	probes := 0

	f.Fuzz(func(t *testing.T, input []byte) {
		// What the gateway must make of the input: the same decoder over the
		// same bytes either ends cleanly or stops at a malformed frame.
		dec := json.NewDecoder(bytes.NewReader(input))
		dec.UseNumber()
		var malformed bool
		for {
			var req Request
			if err := dec.Decode(&req); err != nil {
				malformed = err != io.EOF
				break
			}
		}

		nc, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		_, _ = nc.Write(input)   // fails once the gateway hung up on a malformed frame
		nc.(*memConn).wr.close() // half-close: the gateway reads the input, then io.EOF
		out := make(chan []byte, 1)
		go func() {
			b, _ := io.ReadAll(nc)
			out <- b
		}()
		var frames []Response
		select {
		case b := <-out:
			sc := bufio.NewScanner(bytes.NewReader(b))
			sc.Buffer(nil, 1<<20)
			for sc.Scan() {
				var r Response
				if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
					t.Fatalf("gateway sent a frame that is not one JSON response: %q", sc.Text())
				}
				frames = append(frames, r)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("gateway kept the connection open after the input ended")
		}
		complaints, want := 0, 0
		if malformed {
			want = 1
		}
		for _, r := range frames {
			if r.Op == "error" && strings.HasPrefix(r.Message, "malformed frame") {
				complaints++
			}
		}
		if complaints != want {
			t.Fatalf("malformed=%v input: %d malformed-frame errors before the close, want %d (frames %+v)", malformed, complaints, want, frames)
		}

		// Another client still inserts and subscribes.
		probes++
		pc, err := ln.Dial()
		if err != nil {
			t.Fatal(err)
		}
		c, err := NewClient(pc, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		key := fmt.Sprintf("probe-%d", probes)
		if err := c.Insert("gateway-fuzz-probe", document.Document{"_id": key}); err != nil {
			t.Fatalf("probe insert: %v", err)
		}
		sub, err := c.Subscribe(query.Spec{Collection: "gateway-fuzz-probe", Filter: map[string]any{"_id": key}})
		if err != nil {
			t.Fatalf("probe subscribe: %v", err)
		}
		if init := recvFrame(t, sub, "initial"); len(init.Docs) != 1 {
			t.Fatalf("probe initial result %v, want its one document", init.Docs)
		}
	})
}
