package client

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"uflip/internal/api"
)

// readEventsUnmarshal is readEvents as it was written, with json.Unmarshal
// per payload: the oracle of the events the kept decoder yields.
func readEventsUnmarshal(body []byte, after int64, fn func(api.Event)) (bool, int64, error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(nil, 1<<20)
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if len(data) == 0 {
				continue
			}
			var ev api.Event
			if err := json.Unmarshal(data, &ev); err != nil {
				return false, after, err
			}
			data = data[:0]
			after = ev.ID
			fn(ev)
			if ev.Terminal() {
				return true, after, nil
			}
		case bytes.HasPrefix(line, []byte("data:")):
			data = append(data, bytes.TrimPrefix(line[len("data:"):], []byte(" "))...)
		}
	}
	return false, after, nil
}

// FuzzEventStream: on any SSE body, readEvents' one decoder yields the
// events json.Unmarshal per payload yields, ends the same way, and fails the
// same event: one with a byte after its value, a truncated one, one of space
// alone.
func FuzzEventStream(f *testing.F) {
	for _, body := range []string{
		"id: 1\nevent: queued\ndata: {\"id\":1,\"type\":\"queued\",\"job\":\"j-000001\"}\n\n" +
			"data: {\"id\":2,\"type\":\"progress\",\"job\":\"j-000001\",\"done\":1,\"total\":2,\"detail\":\"Granularity/SW\"}\n\n" +
			"data: {\"id\":3,\"type\":\"done\",\"job\":\"j-000001\",\"runs\":2}\n\ndata: {\"id\":4}\n\n",
		"data: {\"id\":1,\"type\":\"stage\"} \n\ndata:  {\"id\":2,\"stage\":\"x\"}\t\n\n",
		"data: {\"id\":1,\"type\":\"stage\"}x\n\ndata: {\"id\":2}\n\n",
		"data: {\"id\":1,\"type\":\"stage\"}\n\ndata: {\"id\":2,\n\n",
		"data: {\"id\":1}\n\ndata:  \n\ndata: {\"id\":3}\n\n",
		"data: {\"id\":1}\ndata: {\"id\":2}\n\n",
		"data: 7\n\ndata: null\n\ndata: \"s\"\n\n",
		"data: {\"id\":1,\"type\":\"failed\",\"error\":\"boom\"}\n\ndata: garbage\n\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want []api.Event
		gt, gl, gerr := readEvents(bytes.NewReader(body), 5, func(ev api.Event) { got = append(got, ev) })
		wt, wl, werr := readEventsUnmarshal(body, 5, func(ev api.Event) { want = append(want, ev) })
		if !reflect.DeepEqual(got, want) || gt != wt || gl != wl || (gerr == nil) != (werr == nil) {
			t.Fatalf("one decoder: %d events %+v, terminal %v, last %d, error %v\nUnmarshal: %d events %+v, terminal %v, last %d, error %v",
				len(got), got, gt, gl, gerr, len(want), want, wt, wl, werr)
		}
	})
}
