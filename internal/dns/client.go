package dns

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"
)

// Client is a stub resolver speaking UDP to one server address.
type Client struct {
	// Addr is the server's "host:port" address.
	Addr string
	// Timeout bounds each query attempt (default 2s).
	Timeout time.Duration
	// Retries is the number of re-sends after a timeout (default 2).
	Retries int

	mu  sync.Mutex
	rnd *rand.Rand
}

// NewClient creates a client for the given server address.
func NewClient(addr string) *Client {
	return &Client{Addr: addr, rnd: rand.New(rand.NewSource(time.Now().UnixNano()))}
}

func (c *Client) timeout() time.Duration {
	if c.Timeout <= 0 {
		return 2 * time.Second
	}
	return c.Timeout
}

func (c *Client) retries() int {
	if c.Retries <= 0 {
		return 2
	}
	return c.Retries
}

func (c *Client) nextID() uint16 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rnd == nil {
		c.rnd = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	return uint16(c.rnd.Intn(1 << 16))
}

// Exchange sends one question and returns the response message.
func (c *Client) Exchange(q Question) (*Message, error) {
	req := Message{
		Header:    Header{ID: c.nextID(), RecursionDesired: true},
		Questions: []Question{q},
	}
	wire, err := req.Pack()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt <= c.retries(); attempt++ {
		resp, err := c.exchangeOnce(wire, req.Header.ID)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		var ne net.Error
		if !errors.As(err, &ne) || !ne.Timeout() {
			return nil, err
		}
	}
	return nil, fmt.Errorf("dns: query %q type %d: %w", q.Name, q.Type, lastErr)
}

func (c *Client) exchangeOnce(wire []byte, id uint16) (*Message, error) {
	conn, err := net.Dial("udp", c.Addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(c.timeout())); err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	buf := make([]byte, maxMessageLen)
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		var resp Message
		if err := resp.Unpack(buf[:n]); err != nil {
			continue // garbage datagram; keep waiting
		}
		if resp.Header.ID != id || !resp.Header.Response {
			continue // not ours
		}
		return &resp, nil
	}
}

// Result is the outcome of a full web-oriented lookup of one name: all
// terminal addresses plus the CNAME chain traversed.
type Result struct {
	// Name is the queried name (canonical form).
	Name string
	// Addrs are the A and AAAA records reached, in response order.
	Addrs []netip.Addr
	// Chain is the sequence of CNAME targets traversed, in order.
	Chain []string
	// NXDomain is true when the name does not exist.
	NXDomain bool
}

// CNAMECount returns the number of DNS indirections observed — the
// quantity the paper's CDN heuristic thresholds ("two or more CNAMEs").
func (r Result) CNAMECount() int { return len(r.Chain) }

// Lookuper is anything that can perform the combined A+AAAA lookup:
// the UDP client and the in-process registry resolver both qualify.
type Lookuper interface {
	LookupWeb(name string) (Result, error)
}

// LookupWeb queries A and AAAA for name over the wire and merges the
// results.
func (c *Client) LookupWeb(name string) (Result, error) {
	return lookupWeb(name, func(q Question) ([]RR, uint8, error) {
		resp, err := c.Exchange(q)
		if err != nil {
			return nil, 0, err
		}
		return resp.Answers, resp.Header.RCode, nil
	})
}

// DNSSECChecker reports whether a zone apex publishes a DNSKEY — the
// adoption signal for the RPKI-vs-DNSSEC comparison the paper names as
// future work.
type DNSSECChecker interface {
	HasDNSKEY(name string) (bool, error)
}

// HasDNSKEY queries the DNSKEY type over the wire.
func (c *Client) HasDNSKEY(name string) (bool, error) {
	resp, err := c.Exchange(Question{Name: name, Type: TypeDNSKEY, Class: ClassINET})
	if err != nil {
		return false, err
	}
	for _, rr := range resp.Answers {
		if rr.Type == TypeDNSKEY {
			return true, nil
		}
	}
	return false, nil
}

// RegistryResolver adapts a Registry to the Lookuper interface without
// the wire round trip, for in-process bulk measurement.
type RegistryResolver struct {
	Registry *Registry
}

// HasDNSKEY checks for a DNSKEY record directly in the registry.
func (rr RegistryResolver) HasDNSKEY(name string) (bool, error) {
	return len(rr.Registry.Lookup(name, TypeDNSKEY)) > 0, nil
}

// LookupWeb resolves name directly against the registry.
func (rr RegistryResolver) LookupWeb(name string) (Result, error) {
	var res Result
	rr.LookupWebInto(&res, name)
	res.Name = CanonicalName(name)
	return res, nil
}

// LookupWebInto is LookupWeb into a Result the caller keeps across
// calls: Addrs and Chain are truncated and refilled, so a worker
// resolving many names allocates only until the two have grown to the
// longest answer it meets. Name is left empty: the caller has it, and
// not retaining it is what lets the caller build names in a buffer it
// reuses. The registry cannot fail, so there is no error.
func (rr RegistryResolver) LookupWebInto(res *Result, name string) {
	rr.Registry.resolveWeb(res, name)
}

// lookupWeb merges an A and an AAAA query made through query. It is the
// wire client's path, and the oracle RegistryResolver is tested against.
func lookupWeb(name string, query func(Question) ([]RR, uint8, error)) (Result, error) {
	res := Result{Name: CanonicalName(name)}
	nx := 0
	for _, typ := range []uint16{TypeA, TypeAAAA} {
		answers, rcode, err := query(Question{Name: name, Type: typ, Class: ClassINET})
		if err != nil {
			return res, err
		}
		if rcode == RCodeNameError {
			nx++
			continue
		}
		if rcode != RCodeSuccess {
			return res, fmt.Errorf("dns: lookup %q type %d: rcode %d", name, typ, rcode)
		}
		var chain []string
		for _, rr := range answers {
			switch rr.Type {
			case TypeCNAME:
				chain = append(chain, rr.Target)
			case TypeA, TypeAAAA:
				res.Addrs = append(res.Addrs, rr.Addr)
			}
		}
		// Both queries traverse the same chain; keep the longer one.
		if len(chain) > len(res.Chain) {
			res.Chain = chain
		}
	}
	res.NXDomain = nx == 2
	return res, nil
}
