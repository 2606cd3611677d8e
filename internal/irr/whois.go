package irr

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"manrsmeter/internal/netx"
	"manrsmeter/internal/obsv"
	"manrsmeter/internal/rpsl"
)

// Query-server metrics: session lifecycle plus per-kind query counts
// and answer latency. The latency summary covers answer computation
// (index build included on first use), not client I/O.
var (
	mWhoisSessions = obsv.NewCounter("irr_sessions_total",
		"whois client sessions accepted")
	mWhoisSessionsActive = obsv.NewGauge("irr_sessions_active",
		"whois client sessions currently connected")
	mWhoisQueryLatency = obsv.NewSummary("irr_query_seconds",
		"latency of computing one query answer")
	mWhoisQueries = func() map[string]*obsv.Counter {
		m := make(map[string]*obsv.Counter)
		for _, kind := range []string{"origin", "as-set", "route", "invalid"} {
			m[kind] = obsv.NewCounter("irr_queries_total",
				"queries answered by kind", "kind", kind)
		}
		return m
	}()
)

// QueryServer answers IRRd-style queries over TCP — the protocol
// operators' filter-building tools (bgpq4, irrtoolset) speak:
//
//	!gAS64500     IPv4 prefixes originated by AS64500
//	!6AS64500     IPv6 prefixes originated by AS64500
//	!iAS-SET      direct members of an as-set
//	!iAS-SET,1    recursive expansion to AS numbers
//	-x 10.0.0.0/8 exact route objects for a prefix
//	!q            quit
//
// Responses use the IRRd framing: "A<len>\n<data>C\n" for data, "C\n"
// for success without data, "D\n" for not found, "F <msg>\n" for errors.
// Connections run on the netx.Server harness: idle clients are
// disconnected, a query that panics the handler costs only its own
// connection, and Close force-closes live sessions.
type QueryServer struct {
	registry *Registry

	srv *netx.Server

	mu sync.Mutex
	// originV4/originV6 index route objects by origin ASN, built lazily
	// against the registry's current contents.
	originV4, originV6 map[uint32][]netx.Prefix
	indexedRoutes      int
}

// DefaultQueryIdleTimeout disconnects whois clients idle for this long;
// filter-building tools issue queries back-to-back.
const DefaultQueryIdleTimeout = 2 * time.Minute

// NewQueryServer returns a server answering from reg.
func NewQueryServer(reg *Registry) *QueryServer {
	s := &QueryServer{registry: reg}
	s.srv = &netx.Server{
		ReadTimeout:  DefaultQueryIdleTimeout,
		WriteTimeout: 30 * time.Second,
		Handler: func(ctx context.Context, conn net.Conn) {
			s.serve(conn)
		},
	}
	return s
}

// SetIdleTimeout overrides the per-read idle deadline; call before
// Listen/Serve. Zero disables it.
func (s *QueryServer) SetIdleTimeout(d time.Duration) { s.srv.ReadTimeout = d }

// Listen starts serving on addr and returns the bound address.
func (s *QueryServer) Listen(addr string) (net.Addr, error) {
	return s.srv.Listen(addr)
}

// Serve accepts clients from an existing listener.
func (s *QueryServer) Serve(ln net.Listener) error {
	return s.srv.Serve(ln)
}

// Close stops the listener and force-closes active connections.
func (s *QueryServer) Close() error {
	return s.srv.Close()
}

// Shutdown stops the listener and waits for in-flight queries to
// finish, force-closing whatever remains when ctx expires.
func (s *QueryServer) Shutdown(ctx context.Context) error {
	return s.srv.Shutdown(ctx)
}

func (s *QueryServer) ensureIndex() {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.registry.NumRoutes()
	if s.originV4 != nil && n == s.indexedRoutes {
		return
	}
	v4 := make(map[uint32][]netx.Prefix)
	v6 := make(map[uint32][]netx.Prefix)
	for _, db := range s.registry.Databases() {
		for _, ro := range db.Routes() {
			if ro.Prefix.Is6() {
				v6[ro.Origin] = append(v6[ro.Origin], ro.Prefix)
			} else {
				v4[ro.Origin] = append(v4[ro.Origin], ro.Prefix)
			}
		}
	}
	for _, m := range []map[uint32][]netx.Prefix{v4, v6} {
		for asn, ps := range m {
			sort.Slice(ps, func(i, j int) bool { return ps[i].Compare(ps[j]) < 0 })
			// Deduplicate mirrored objects.
			out := ps[:0]
			for i, p := range ps {
				if i == 0 || p != ps[i-1] {
					out = append(out, p)
				}
			}
			m[asn] = out
		}
	}
	s.originV4, s.originV6, s.indexedRoutes = v4, v6, n
}

func (s *QueryServer) serve(conn net.Conn) {
	mWhoisSessions.Inc()
	mWhoisSessionsActive.Inc()
	defer mWhoisSessionsActive.Dec()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 4096), 1<<20)
	bw := bufio.NewWriter(conn)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "!q" {
			return
		}
		s.answer(bw, line)
		if bw.Flush() != nil {
			return
		}
	}
}

// Answer responds to a single query line; exported for direct use in
// tests and tools without a TCP round trip.
func (s *QueryServer) Answer(query string) string {
	var b strings.Builder
	bw := bufio.NewWriter(&b)
	s.answer(bw, strings.TrimSpace(query))
	bw.Flush()
	return b.String()
}

func (s *QueryServer) answer(bw *bufio.Writer, line string) {
	start := time.Now()
	defer func() { mWhoisQueryLatency.Observe(time.Since(start).Seconds()) }()
	switch {
	case strings.HasPrefix(line, "!g"), strings.HasPrefix(line, "!6"):
		mWhoisQueries["origin"].Inc()
		asn, err := rpsl.ParseASN(strings.TrimSpace(line[2:]))
		if err != nil {
			fmt.Fprintf(bw, "F invalid AS number\n")
			return
		}
		s.ensureIndex()
		m := s.originV4
		if strings.HasPrefix(line, "!6") {
			m = s.originV6
		}
		prefixes := m[asn]
		if len(prefixes) == 0 {
			fmt.Fprint(bw, "D\n")
			return
		}
		var sb strings.Builder
		for i, p := range prefixes {
			if i > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(p.String())
		}
		sb.WriteByte('\n')
		writeData(bw, sb.String())
	case strings.HasPrefix(line, "!i"):
		mWhoisQueries["as-set"].Inc()
		arg := strings.TrimSpace(line[2:])
		recursive := false
		if strings.HasSuffix(arg, ",1") {
			recursive = true
			arg = strings.TrimSuffix(arg, ",1")
		}
		if recursive {
			asns, _ := s.registry.ExpandASSet(arg)
			if len(asns) == 0 {
				fmt.Fprint(bw, "D\n")
				return
			}
			var sb strings.Builder
			for i, a := range asns {
				if i > 0 {
					sb.WriteByte(' ')
				}
				sb.WriteString(rpsl.FormatASN(a))
			}
			sb.WriteByte('\n')
			writeData(bw, sb.String())
			return
		}
		set := s.registry.findASSet(strings.ToUpper(arg))
		if set == nil {
			fmt.Fprint(bw, "D\n")
			return
		}
		writeData(bw, strings.Join(set.Members, " ")+"\n")
	case strings.HasPrefix(line, "-x"):
		mWhoisQueries["route"].Inc()
		arg := strings.TrimSpace(strings.TrimPrefix(line, "-x"))
		prefix, err := netx.ParsePrefix(arg)
		if err != nil {
			fmt.Fprintf(bw, "F invalid prefix\n")
			return
		}
		var sb strings.Builder
		found := false
		for _, db := range s.registry.Databases() {
			for _, ro := range db.Routes() {
				if ro.Prefix == prefix {
					found = true
					cls := "route"
					if prefix.Is6() {
						cls = "route6"
					}
					fmt.Fprintf(&sb, "%s: %s\norigin: %s\nsource: %s\n\n",
						cls, ro.Prefix, rpsl.FormatASN(ro.Origin), ro.Source)
				}
			}
		}
		if !found {
			fmt.Fprint(bw, "D\n")
			return
		}
		writeData(bw, sb.String())
	default:
		mWhoisQueries["invalid"].Inc()
		fmt.Fprintf(bw, "F unrecognized query\n")
	}
}

func writeData(bw *bufio.Writer, data string) {
	fmt.Fprintf(bw, "A%d\n", len(data))
	bw.WriteString(data)
	fmt.Fprint(bw, "C\n")
}
