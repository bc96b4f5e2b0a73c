// Package zonedb models the DNS zones the paper's vantage points serve:
// the root zone (TLD delegations), .nl (≈5.9M second-level delegations) and
// .nz (≈140K second-level plus ≈570K third-level delegations under closed
// categories such as co.nz and net.nz).
//
// Zones are *virtual*: registered domains are a deterministic family
// d<rank>.<suffix> whose existence, NS set and DNSSEC status are computed
// on demand from the rank, so a 5.9M-delegation zone costs no memory. This
// preserves the properties the analysis depends on — existence vs
// NXDOMAIN, per-domain DS records, referral NS sets — while scaling to the
// paper's zone sizes (Table 2).
package zonedb

import (
	"fmt"
	"hash/fnv"
	"strconv"
	"strings"

	"dnscentral/internal/dnswire"
)

// NZCategories are the closed second-level categories of .nz under which
// third-level registrations live (example.net.nz, example.co.nz, ...).
var NZCategories = []string{"co", "net", "org", "ac", "geek", "govt", "school", "maori"}

// Zone is one authoritative zone. Build with NewCcTLD or NewRoot.
type Zone struct {
	// Origin is the zone apex, canonical form ("nl.", "nz.", ".").
	Origin string
	// ServerNames are the zone's own authoritative server host names
	// (the NS set of the apex).
	ServerNames []string

	numSecond  int
	numThird   int
	categories []string

	signedFraction float64
	soa            dnswire.SOAData
	dnskey         dnswire.DNSKEYData

	// root-only: delegated TLD labels.
	tlds    map[string]bool
	tldList []string

	// leaf marks a second-level (registrant) zone that answers with
	// terminal records instead of referrals.
	leaf bool
}

// LeafHosts are the host labels a leaf zone answers for (besides the apex).
var LeafHosts = []string{"www", "mail", "ns1", "ns2"}

// NewLeaf builds the zone of one registered domain: the authoritative
// endpoint a resolver reaches after following the TLD's referral. It
// answers A/AAAA for the apex and the LeafHosts labels and NXDOMAIN for
// anything else.
func NewLeaf(origin string, serverNames []string) (*Zone, error) {
	origin = dnswire.CanonicalName(origin)
	if origin == "." || dnswire.CountLabels(origin) < 2 {
		return nil, fmt.Errorf("zonedb: leaf origin %q must be a registered domain", origin)
	}
	if len(serverNames) == 0 {
		return nil, fmt.Errorf("zonedb: zone needs at least one server name")
	}
	return &Zone{
		Origin:      origin,
		ServerNames: canonicalAll(serverNames),
		leaf:        true,
		soa: dnswire.SOAData{
			MName: serverNames[0], RName: "hostmaster." + origin,
			Serial: 2020040500, Refresh: 3600, Retry: 600, Expire: 2419200, Minimum: 300,
		},
		dnskey: dnswire.DNSKEYData{
			Flags: 257, Protocol: 3, Algorithm: 13,
			PublicKey: []byte("synthetic-leaf-ksk-" + origin),
		},
	}, nil
}

// IsLeaf reports whether z is a registrant (terminal) zone.
func (z *Zone) IsLeaf() bool { return z.leaf }

// LeafOwns reports whether a leaf zone has records at qname (the apex or
// one of the LeafHosts labels).
func (z *Zone) LeafOwns(qname string) bool {
	qname = dnswire.CanonicalName(qname)
	if qname == z.Origin {
		return true
	}
	labels := dnswire.SplitLabels(qname)
	if len(labels) != dnswire.CountLabels(z.Origin)+1 {
		return false
	}
	for _, h := range LeafHosts {
		if labels[0] == h {
			return true
		}
	}
	return false
}

// NewCcTLD builds a country-code TLD zone with numSecond second-level
// delegations and numThird third-level delegations spread over the closed
// categories (pass numThird=0 for a flat registry like .nl).
// signedFraction of delegations carry DS records.
func NewCcTLD(origin string, numSecond, numThird int, signedFraction float64, serverNames []string) (*Zone, error) {
	origin = dnswire.CanonicalName(origin)
	if origin == "." {
		return nil, fmt.Errorf("zonedb: ccTLD origin must not be the root")
	}
	if numSecond < 0 || numThird < 0 || numSecond+numThird == 0 {
		return nil, fmt.Errorf("zonedb: zone must have at least one delegation")
	}
	if signedFraction < 0 || signedFraction > 1 {
		return nil, fmt.Errorf("zonedb: signedFraction %v out of range", signedFraction)
	}
	if len(serverNames) == 0 {
		return nil, fmt.Errorf("zonedb: zone needs at least one server name")
	}
	z := &Zone{
		Origin:         origin,
		ServerNames:    canonicalAll(serverNames),
		numSecond:      numSecond,
		numThird:       numThird,
		categories:     NZCategories,
		signedFraction: signedFraction,
		soa: dnswire.SOAData{
			MName:   serverNames[0],
			RName:   "hostmaster." + origin,
			Serial:  2020040500,
			Refresh: 3600, Retry: 600, Expire: 2419200, Minimum: 900,
		},
		dnskey: dnswire.DNSKEYData{
			Flags: 257, Protocol: 3, Algorithm: 13,
			PublicKey: []byte("synthetic-ksk-" + origin),
		},
	}
	return z, nil
}

// NewRoot builds the root zone with the given delegated TLD labels (bare
// labels like "com", "nl").
func NewRoot(tlds []string, serverNames []string) (*Zone, error) {
	if len(tlds) == 0 {
		return nil, fmt.Errorf("zonedb: root zone needs TLDs")
	}
	if len(serverNames) == 0 {
		return nil, fmt.Errorf("zonedb: zone needs at least one server name")
	}
	z := &Zone{
		Origin:         ".",
		ServerNames:    canonicalAll(serverNames),
		tlds:           make(map[string]bool, len(tlds)),
		signedFraction: 1, // the root and TLD DSes are fully signed
		soa: dnswire.SOAData{
			MName: serverNames[0], RName: "nstld.verisign-grs.com.",
			Serial: 2020050600, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
		},
		dnskey: dnswire.DNSKEYData{
			Flags: 257, Protocol: 3, Algorithm: 8,
			PublicKey: []byte("synthetic-root-ksk"),
		},
	}
	for _, t := range tlds {
		label := strings.TrimSuffix(dnswire.CanonicalName(t), ".")
		if label == "" || strings.Contains(label, ".") {
			return nil, fmt.Errorf("zonedb: %q is not a bare TLD label", t)
		}
		if !z.tlds[label] {
			z.tlds[label] = true
			z.tldList = append(z.tldList, label)
		}
	}
	return z, nil
}

func canonicalAll(names []string) []string {
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = dnswire.CanonicalName(n)
	}
	return out
}

// IsRoot reports whether z is the root zone.
func (z *Zone) IsRoot() bool { return z.Origin == "." }

// Size returns the number of delegations (registered domains, or TLDs for
// the root).
func (z *Zone) Size() int {
	if z.IsRoot() {
		return len(z.tldList)
	}
	return z.numSecond + z.numThird
}

// DomainName returns the rank-th delegated name. Ranks below numSecond are
// second-level ("d<rank>.nl."); the rest are third-level under a category
// ("d<rank>.co.nz.").
func (z *Zone) DomainName(rank int) (string, error) {
	if rank < 0 || rank >= z.Size() {
		return "", fmt.Errorf("zonedb: rank %d out of range [0,%d)", rank, z.Size())
	}
	if z.IsRoot() {
		return z.tldList[rank] + ".", nil
	}
	if rank < z.numSecond {
		return fmt.Sprintf("d%d.%s", rank, z.Origin), nil
	}
	cat := z.categories[(rank-z.numSecond)%len(z.categories)]
	return fmt.Sprintf("d%d.%s.%s", rank, cat, z.Origin), nil
}

// Delegation maps any query name at or below a registered delegation to
// that delegation. It returns ok=false for the apex itself, for names not
// under the zone, and for names that resolve to no registered domain
// (which the authoritative server answers with NXDOMAIN).
func (z *Zone) Delegation(qname string) (string, bool) {
	qname = dnswire.CanonicalName(qname)
	if qname == z.Origin || !dnswire.IsSubdomain(qname, z.Origin) {
		return "", false
	}
	labels := dnswire.SplitLabels(qname)
	originLabels := dnswire.CountLabels(z.Origin)
	rel := labels[:len(labels)-originLabels] // labels below the origin

	if z.IsRoot() {
		tld := rel[len(rel)-1]
		if z.tlds[tld] {
			return tld + ".", true
		}
		return "", false
	}

	// Third-level registration: <d-label>.<category>.<origin>.
	if len(rel) >= 2 {
		cat := rel[len(rel)-1]
		if z.isCategory(cat) {
			dl := rel[len(rel)-2]
			if rank, ok := z.parseRank(dl); ok && rank >= z.numSecond && rank < z.Size() {
				// The category of a rank is fixed; reject mismatches.
				if z.categories[(rank-z.numSecond)%len(z.categories)] == cat {
					return dl + "." + cat + "." + z.Origin, true
				}
			}
			return "", false
		}
	}
	// Second-level registration: <d-label>.<origin>.
	dl := rel[len(rel)-1]
	if rank, ok := z.parseRank(dl); ok && rank < z.numSecond {
		return dl + "." + z.Origin, true
	}
	return "", false
}

func (z *Zone) isCategory(label string) bool {
	for _, c := range z.categories {
		if c == label {
			return true
		}
	}
	return false
}

// parseRank extracts the rank from a d<rank> label.
func (z *Zone) parseRank(label string) (int, bool) {
	if len(label) < 2 || label[0] != 'd' {
		return 0, false
	}
	n, err := strconv.Atoi(label[1:])
	if err != nil || n < 0 {
		return 0, false
	}
	// Reject leading zeros so each rank has exactly one name.
	if label[1] == '0' && len(label) > 2 {
		return 0, false
	}
	return n, true
}

// Exists reports whether qname is the apex, a category cut, or at/below a
// registered delegation.
func (z *Zone) Exists(qname string) bool {
	qname = dnswire.CanonicalName(qname)
	if qname == z.Origin {
		return true
	}
	if !z.IsRoot() && z.numThird > 0 {
		labels := dnswire.SplitLabels(qname)
		originLabels := dnswire.CountLabels(z.Origin)
		if len(labels) == originLabels+1 && z.isCategory(labels[0]) {
			return true // the category cut itself (empty non-terminal)
		}
	}
	_, ok := z.Delegation(qname)
	return ok
}

// IsSigned reports whether the delegation carries DS records. The decision
// is a deterministic hash of the name against the configured fraction.
func (z *Zone) IsSigned(delegation string) bool {
	if z.signedFraction >= 1 {
		return true
	}
	if z.signedFraction <= 0 {
		return false
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(dnswire.CanonicalName(delegation)))
	return float64(h.Sum64()%10000) < z.signedFraction*10000
}

// DelegationNS returns the child NS host names for a delegation; the hosts
// are deterministic so referrals are stable across runs. Out-of-zone hosts
// are used for half the domains so referrals sometimes need no glue,
// mirroring real registries.
func (z *Zone) DelegationNS(delegation string) []string {
	delegation = dnswire.CanonicalName(delegation)
	h := fnv.New32a()
	_, _ = h.Write([]byte(delegation))
	op := h.Sum32() % 100
	if op < 50 {
		return []string{"ns1." + delegation, "ns2." + delegation, "ns3." + delegation}
	}
	prov := op % 7
	return []string{
		fmt.Sprintf("ns1.dnsprovider%d.com.", prov),
		fmt.Sprintf("ns2.dnsprovider%d.com.", prov),
		fmt.Sprintf("ns3.dnsprovider%d.com.", prov),
	}
}

// DSRecords returns the DS RRSet for a signed delegation (empty otherwise).
func (z *Zone) DSRecords(delegation string) []dnswire.RR {
	if !z.IsSigned(delegation) {
		return nil
	}
	delegation = dnswire.CanonicalName(delegation)
	h := fnv.New64a()
	_, _ = h.Write([]byte(delegation))
	sum := h.Sum64()
	digest := make([]byte, 32)
	for i := range digest {
		digest[i] = byte(sum >> (uint(i) % 8 * 8))
	}
	// Four DS records per signed delegation: two keys (the outgoing and
	// incoming KSK of an algorithm rollover — .nl rolled to ECDSA during
	// the study period) times two digest types (SHA-256 and SHA-384).
	digest384 := make([]byte, 48)
	for i := range digest384 {
		digest384[i] = byte(sum >> (uint(i+3) % 8 * 8))
	}
	var out []dnswire.RR
	for _, key := range []struct {
		tag  uint16
		algo uint8
	}{{uint16(sum), 8}, {uint16(sum) + 1, 13}} {
		out = append(out,
			dnswire.RR{
				Name: delegation, Class: dnswire.ClassIN, TTL: 3600,
				Data: dnswire.DSData{
					KeyTag: key.tag, Algorithm: key.algo,
					DigestType: 2, Digest: digest,
				},
			},
			dnswire.RR{
				Name: delegation, Class: dnswire.ClassIN, TTL: 3600,
				Data: dnswire.DSData{
					KeyTag: key.tag, Algorithm: key.algo,
					DigestType: 4, Digest: digest384,
				},
			},
		)
	}
	return out
}

// SOA returns the zone's SOA record.
func (z *Zone) SOA() dnswire.RR {
	return dnswire.RR{Name: z.Origin, Class: dnswire.ClassIN, TTL: z.soa.Minimum, Data: z.soa}
}

// DNSKEY returns the zone's apex DNSKEY RRSet.
func (z *Zone) DNSKEY() []dnswire.RR {
	return []dnswire.RR{{
		Name: z.Origin, Class: dnswire.ClassIN, TTL: 3600, Data: z.dnskey,
	}}
}

// ApexNS returns the zone's own NS RRSet.
func (z *Zone) ApexNS() []dnswire.RR {
	out := make([]dnswire.RR, len(z.ServerNames))
	for i, h := range z.ServerNames {
		out[i] = dnswire.RR{Name: z.Origin, Class: dnswire.ClassIN, TTL: 172800, Data: dnswire.NSData{Host: h}}
	}
	return out
}

// DefaultRootTLDs is a representative root-zone TLD set: the gTLDs and
// ccTLDs the workload generator references, so valid names resolve and
// Chromium-style random labels fall through to NXDOMAIN.
var DefaultRootTLDs = []string{
	"com", "net", "org", "info", "biz", "edu", "gov", "mil", "int", "arpa",
	"io", "dev", "app", "xyz", "online", "site", "shop", "club", "top",
	"nl", "nz", "de", "uk", "fr", "au", "jp", "cn", "in", "br", "ru", "it",
	"es", "ca", "se", "no", "fi", "dk", "be", "ch", "at", "pl", "cz", "id",
	"kr", "mx", "ar", "cl", "za", "ng", "eg", "tr", "sa", "ae", "il", "gr",
	"pt", "ie", "hu", "ro", "bg", "hr", "si", "sk", "lt", "lv", "ee", "ua",
	"us", "tv", "me", "cc", "ws", "fm", "ai", "co",
}
