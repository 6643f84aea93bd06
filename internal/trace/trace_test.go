package trace

import (
	"encoding/csv"
	"encoding/json"
	"strings"
	"testing"
)

func sampleRecorder() *Recorder {
	r := NewRecorder()
	for _, e := range []Event{
		{At: 0, Kind: Wake, Thread: "worker", ThreadID: 1},
		{At: 5, Kind: Dispatch, Thread: "worker", ThreadID: 1},
		{At: 7, Kind: Interrupt, Service: 2},
		{At: 15, Kind: Charge, Thread: "worker", ThreadID: 1, Used: 1000, Runnable: true},
		{At: 15, Kind: Dispatch, Thread: "worker", ThreadID: 1},
		{At: 20, Kind: Charge, Thread: "worker", ThreadID: 1, Used: 500},
		{At: 20, Kind: Block, Thread: "worker", ThreadID: 1},
		{At: 20, Kind: Idle},
		{At: 30, Kind: Exit, Thread: "worker", ThreadID: 1},
	} {
		r.Add(e)
	}
	return r
}

func TestRecorderEventsAndFilter(t *testing.T) {
	r := sampleRecorder()
	evs := r.Events()
	if len(evs) != 9 {
		t.Fatalf("%d events", len(evs))
	}
	if evs[0].Kind != Wake || evs[8].Kind != Exit {
		t.Errorf("event order wrong: %v ... %v", evs[0].Kind, evs[8].Kind)
	}
	charges := r.Filter(Charge)
	if len(charges) != 2 || charges[0].Used != 1000 || !charges[0].Runnable || charges[1].Runnable {
		t.Errorf("charges %+v", charges)
	}
	both := r.Filter(Dispatch, Charge)
	if len(both) != 4 {
		t.Errorf("filter pair got %d", len(both))
	}
}

func TestSpans(t *testing.T) {
	r := sampleRecorder()
	spans := r.Spans()
	if len(spans) != 2 {
		t.Fatalf("spans %v", spans)
	}
	if spans[0].Start != 5 || spans[0].End != 15 || spans[0].Used != 1000 {
		t.Errorf("span 0 %+v", spans[0])
	}
	if spans[1].Start != 15 || spans[1].End != 20 || spans[1].Used != 500 {
		t.Errorf("span 1 %+v", spans[1])
	}
	s := FormatSpans(spans)
	if !strings.Contains(s, "worker[5ns-15ns]") {
		t.Errorf("formatted %q", s)
	}
}

func TestWriteCSV(t *testing.T) {
	r := sampleRecorder()
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(b.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d CSV rows", len(rows))
	}
	if rows[0][0] != "at_ns" || rows[0][1] != "kind" {
		t.Errorf("header %v", rows[0])
	}
	if rows[1][1] != "wake" || rows[1][2] != "worker" {
		t.Errorf("first row %v", rows[1])
	}
}

func TestWriteJSON(t *testing.T) {
	r := sampleRecorder()
	var b strings.Builder
	if err := r.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var evs []Event
	if err := json.Unmarshal([]byte(b.String()), &evs); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 9 || evs[3].Used != 1000 {
		t.Errorf("decoded %d events, evs[3]=%+v", len(evs), evs[3])
	}
}
