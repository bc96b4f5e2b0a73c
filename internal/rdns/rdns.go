// Package rdns models the reverse-DNS machinery of §4.3 of the paper: PTR
// records, Facebook's operational PTR naming scheme (airport-coded site
// plus — at 12 of 13 sites — the host's IPv4 address embedded even in the
// PTR of an IPv6 address), and the dual-stack matcher that joins a
// resolver's IPv4 and IPv6 addresses through those embedded IPv4s.
package rdns

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"

	"dnscentral/internal/dnswire"
)

// DB is a PTR database: address → host name. Safe for concurrent use.
type DB struct {
	mu  sync.RWMutex
	ptr map[netip.Addr]string
}

// NewDB returns an empty PTR database.
func NewDB() *DB { return &DB{ptr: make(map[netip.Addr]string)} }

// Add registers the PTR target for addr.
func (db *DB) Add(addr netip.Addr, target string) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.ptr[addr.Unmap()] = dnswire.CanonicalName(target)
}

// Lookup performs the "reverse lookup" of the paper: address → PTR target.
func (db *DB) Lookup(addr netip.Addr) (string, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.ptr[addr.Unmap()]
	return t, ok
}

// Len returns the number of PTR records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.ptr)
}

// FacebookSites are the 13 anycast/resolver sites (airport codes) the
// paper identifies from Facebook's PTR names. Site index 0 ("location 1"
// in Figure 5) is the dominant one; the last site is the single site whose
// PTR names do NOT embed the host IPv4 ("For 12 of these sites, the PTR
// record names also include the IPv4 address").
var FacebookSites = []string{
	"ams", "fra", "lhr", "cdg", "iad", "atl", "dfw", "sea", "sjc", "gru", "nrt", "sin", "syd",
}

// FacebookPTRDomain is the suffix of the synthetic Facebook resolver PTRs.
const FacebookPTRDomain = "fbdns.tfbnw.net."

// SiteEmbedsIPv4 reports whether the site's PTR names embed the host IPv4;
// true for all but the last of the 13 sites.
func SiteEmbedsIPv4(site string) bool {
	return site != FacebookSites[len(FacebookSites)-1]
}

// FacebookPTRName builds a PTR target in Facebook's operational style:
// "resolver-<site>-<a>-<b>-<c>-<d>.fbdns.tfbnw.net." embedding hostV4, or
// "resolver-<site>-x<n>.fbdns.tfbnw.net." for the non-embedding site.
func FacebookPTRName(site string, hostV4 netip.Addr, ordinal int) string {
	if !SiteEmbedsIPv4(site) {
		return fmt.Sprintf("resolver-%s-x%d.%s", site, ordinal, FacebookPTRDomain)
	}
	b := hostV4.Unmap().As4()
	return fmt.Sprintf("resolver-%s-%d-%d-%d-%d.%s", site, b[0], b[1], b[2], b[3], FacebookPTRDomain)
}

// ParseFacebookPTR extracts the site code and (when embedded) the IPv4
// address from a Facebook-style PTR target.
func ParseFacebookPTR(target string) (site string, hostV4 netip.Addr, hasV4 bool, ok bool) {
	target = dnswire.CanonicalName(target)
	if !strings.HasSuffix(target, "."+FacebookPTRDomain) {
		return "", netip.Addr{}, false, false
	}
	label := strings.TrimSuffix(target, "."+FacebookPTRDomain)
	parts := strings.Split(label, "-")
	if len(parts) < 3 || parts[0] != "resolver" {
		return "", netip.Addr{}, false, false
	}
	site = parts[1]
	if len(parts) == 6 {
		var b [4]byte
		for i := 0; i < 4; i++ {
			var v int
			if _, err := fmt.Sscanf(parts[2+i], "%d", &v); err != nil || v < 0 || v > 255 {
				return "", netip.Addr{}, false, false
			}
			b[i] = byte(v)
		}
		return site, netip.AddrFrom4(b), true, true
	}
	if len(parts) == 3 && strings.HasPrefix(parts[2], "x") {
		return site, netip.Addr{}, false, true
	}
	return "", netip.Addr{}, false, false
}

// DualStack is one resolver identified on both families.
type DualStack struct {
	Site string
	Key  netip.Addr // the embedded IPv4 joining the addresses
	V4   []netip.Addr
	V6   []netip.Addr
}

// Matcher reproduces the paper's dual-stack identification: observe the
// PTR target of every address that queried, join addresses whose PTR
// embeds the same IPv4.
type Matcher struct {
	mu       sync.Mutex
	byKey    map[netip.Addr]*DualStack
	noPTR    int
	nonFB    int
	observed int
}

// NewMatcher returns an empty matcher.
func NewMatcher() *Matcher {
	return &Matcher{byKey: make(map[netip.Addr]*DualStack)}
}

// Observe records one (address, PTR target) observation. Addresses whose
// PTR is missing (target "") or not Facebook-shaped are counted but not
// matched — the paper reports 1 IPv4 and 2 IPv6 addresses without PTRs.
func (m *Matcher) Observe(addr netip.Addr, target string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.observed++
	if target == "" {
		m.noPTR++
		return
	}
	site, key, hasV4, ok := ParseFacebookPTR(target)
	if !ok {
		m.nonFB++
		return
	}
	if !hasV4 {
		return // non-embedding site: cannot join families
	}
	ds, exists := m.byKey[key]
	if !exists {
		ds = &DualStack{Site: site, Key: key}
		m.byKey[key] = ds
	}
	a := addr.Unmap()
	if a.Is4() {
		ds.V4 = appendUnique(ds.V4, a)
	} else {
		ds.V6 = appendUnique(ds.V6, a)
	}
}

func appendUnique(s []netip.Addr, a netip.Addr) []netip.Addr {
	for _, x := range s {
		if x == a {
			return s
		}
	}
	return append(s, a)
}

// DualStacks returns the resolvers seen on both families, sorted by key.
func (m *Matcher) DualStacks() []DualStack {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []DualStack
	for _, ds := range m.byKey {
		if len(ds.V4) > 0 && len(ds.V6) > 0 {
			out = append(out, *ds)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Less(out[j].Key) })
	return out
}

// Unmatched reports the observation counts that could not be joined.
func (m *Matcher) Unmatched() (noPTR, nonFacebook int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.noPTR, m.nonFB
}
