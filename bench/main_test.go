package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"hsfq/internal/server"
	"hsfq/internal/simconfig"
	"hsfq/internal/sweep"
)

func TestQuantile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	cases := []struct {
		n      int
		q      float64
		want   float64
		wantOK bool
	}{
		{0, 0.5, 0, false},
		{1, 0.5, 1, false},
		{19, 0.5, 10, false}, // 9.5 samples beyond the median
		{20, 0.5, 10.5, true},
		{99, 0.9, 89.2, false},
		{100, 0.9, 90.1, true},
		{999, 0.99, 989.02, false},
		{1000, 0.99, 990.01, true},
	}
	for _, c := range cases {
		got, ok := quantile(seq(c.n), c.q)
		if ok != c.wantOK || (c.n > 0 && abs(got-c.want) > 1e-9) {
			t.Errorf("quantile(n=%d, q=%g) = %g,%v; want %g,%v", c.n, c.q, got, ok, c.want, c.wantOK)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestInputsDeterministic checks that the seed alone fixes every generated
// input: the same seed gives the same bytes, another seed other bytes.
func TestInputsDeterministic(t *testing.T) {
	gens := map[string]func(seed uint64) []byte{
		"engine": func(s uint64) []byte { return bytes.Join(engineInputs(s), []byte{'\n'}) },
		"sweep":  func(s uint64) []byte { return bytes.Join(sweepInputs(s), []byte{'\n'}) },
		"serve":  func(s uint64) []byte { return mustJSON(serveInputs(s, serveRate, 3)) },
		"follow": func(s uint64) []byte { return append(followInput(s, 0), followInput(s, 7)...) },
	}
	for name, gen := range gens {
		a, b, c := gen(1), gen(1), gen(2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 gave different inputs on two calls", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave identical inputs", name)
		}
	}
}

// TestServeMix checks the open-loop schedule's exact count and proportions.
func TestServeMix(t *testing.T) {
	s := serveInputs(3, serveRate, 5)
	if len(s.Requests) != serveRate*5 {
		t.Fatalf("%d requests, want %d", len(s.Requests), serveRate*5)
	}
	kinds, tenants := map[int]int{}, map[string]int{}
	for i, rq := range s.Requests {
		if i > 0 && rq.At < s.Requests[i-1].At {
			t.Fatalf("request %d due before request %d", i, i-1)
		}
		kinds[rq.Kind]++
		tenants[rq.Tenant]++
	}
	if kinds[reqFresh] != len(s.Bodies) || kinds[reqFresh] < len(s.Requests)/2 || kinds[reqFresh] > len(s.Requests)/2+2 {
		t.Errorf("mix %v over %d requests with %d fresh bodies", kinds, len(s.Requests), len(s.Bodies))
	}
	if tenants["gold"] != tenants["bronze"] {
		t.Errorf("tenants %v, want an even split", tenants)
	}
}

// TestReadFollow parses a live SSE trace stream served for a real job and
// checks its row digest against the recording's, then feeds the parser a
// stream with a drop and one cut short.
func TestReadFollow(t *testing.T) {
	srv := server.New(daemonConfig(nil))
	defer srv.Drain()
	body := mustJSON(videoServer(2*time.Second, 99))
	c, err := simconfig.Parse(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	key := sweep.JobKey(c, c.Seed)
	posted := make(chan served, 1)
	go func() { posted <- simulate(srv, body, "") }()
	st, _, err := follow(srv, key)
	if post := <-posted; post.status != http.StatusOK {
		t.Fatalf("POST status %d", post.status)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := st.check(); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/trace/"+key, nil))
	if got := rec.Header().Get("X-Trace-Digest"); st.rows == 0 || got != st.rowDigest {
		t.Errorf("stream: %d rows, digest %s; recording digest %s", st.rows, st.rowDigest, got)
	}

	const rows = "event: row\ndata: 1,dispatch,a,1,0,false,0\n\n"
	dropped := rows + "event: dropped\ndata: {\"dropped\":3}\n\nevent: end\ndata: {\"rows\":4,\"digest\":\"x\"}\n\n"
	st, err = readFollow(strings.NewReader(dropped))
	if err != nil || st.check() == nil || st.dropped != 3 {
		t.Errorf("stream with a drop: %+v, %v; want a failed check", st, err)
	}
	if _, err := readFollow(strings.NewReader(rows)); err == nil {
		t.Error("stream without an end event parsed without error")
	}
}

// TestSmoke runs every workload for one second and checks that the result
// line names exactly the metrics BENCHMARK.json declares and that no
// operation failed. This keeps the JSON file and the code in sync.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	names := func(ms []struct{ Name string }) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	if got, want := names(decl.Workloads), []string{"engine", "follow", "serve", "sweep"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, code has %v", got, want)
	}
	check := func(t *testing.T, name string, traced bool, want []string) {
		var out bytes.Buffer
		if err := run(&out, name, 1, 1, traced, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("last line: %v\n%s", err, out.String())
		}
		var got []string
		for n := range res.Metrics {
			got = append(got, n)
		}
		sort.Strings(got)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("metrics %v, BENCHMARK.json declares %v", got, want)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
		}
	}
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) { check(t, wl.name, false, names(decl.EndToEnd)) })
	}
	t.Run("sweep-traced", func(t *testing.T) { check(t, "sweep", true, names(decl.PerLayer)) })
}
