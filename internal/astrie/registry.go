package astrie

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Provider identifies one of the paper's five cloud/content providers, or
// the rest of the Internet.
type Provider uint8

// Providers studied in the paper (Table 1) plus Other for the long tail.
const (
	ProviderOther Provider = iota
	ProviderGoogle
	ProviderAmazon
	ProviderMicrosoft
	ProviderFacebook
	ProviderCloudflare
)

// CloudProviders lists the five studied providers in the paper's order.
var CloudProviders = []Provider{
	ProviderGoogle, ProviderAmazon, ProviderMicrosoft, ProviderFacebook, ProviderCloudflare,
}

// String names the provider.
func (p Provider) String() string {
	switch p {
	case ProviderGoogle:
		return "Google"
	case ProviderAmazon:
		return "Amazon"
	case ProviderMicrosoft:
		return "Microsoft"
	case ProviderFacebook:
		return "Facebook"
	case ProviderCloudflare:
		return "Cloudflare"
	}
	return "Other"
}

// IsCloud reports whether p is one of the five studied providers.
func (p Provider) IsCloud() bool { return p != ProviderOther }

// ProviderASNs reproduces Table 1 of the paper: the ASes each provider
// announces resolvers from (20 ASes in total).
var ProviderASNs = map[Provider][]uint32{
	ProviderGoogle:     {15169},
	ProviderAmazon:     {7224, 8987, 9059, 14168, 16509},
	ProviderMicrosoft:  {3598, 6584, 8068, 8069, 8070, 8071, 8072, 8073, 8074, 8075, 12076, 23468},
	ProviderFacebook:   {32934},
	ProviderCloudflare: {13335},
}

// ASInfo describes one autonomous system in the registry.
type ASInfo struct {
	ASN      uint32
	Name     string
	Provider Provider
	// V4 and V6 are the synthetic prefixes allocated to the AS.
	V4 netip.Prefix
	V6 netip.Prefix
}

// LongTailASNBase is the first ASN used for synthetic "rest of the
// Internet" ASes; chosen above every Table-1 ASN so they never collide.
const LongTailASNBase uint32 = 100000

// Registry holds the AS database: the provider ASes plus a configurable
// long tail, each with deterministic synthetic prefix allocations, and the
// LPM table for address classification.
//
// Every AS is known by its ordinal, its place in registration order: the
// Table-1 ASes first, in CloudProviders order, then the long tail. An
// ordinal's ASN, provider, prefixes and name are all arithmetic on the
// ordinal, with the Table-1 ASes looked up in a 20-row table, so the
// registry holds no object per AS: the trie maps a prefix to an ordinal.
type Registry struct {
	trie     Trie
	table1   []providerAS // ordinals 0 … len-1
	longTail int          // ordinals len(table1) … len(table1)+longTail-1
}

// providerAS is one Table-1 row.
type providerAS struct {
	asn      uint32
	provider Provider
}

// NewRegistry builds a registry with the paper's 20 provider ASes plus
// longTail synthetic other-ASes. Allocation is deterministic: the i-th AS
// (in registration order) gets the IPv4 /16 and IPv6 /32 derived from its
// ordinal, so traces generated on one run classify identically on another.
func NewRegistry(longTail int) *Registry {
	r := &Registry{longTail: max(longTail, 0)}
	rows := 0
	for _, p := range CloudProviders {
		rows += len(ProviderASNs[p])
	}
	r.table1 = make([]providerAS, 0, rows)
	for _, p := range CloudProviders {
		for _, asn := range ProviderASNs[p] {
			r.table1 = append(r.table1, providerAS{asn: asn, provider: p})
		}
	}
	n := r.NumASes()
	if n > MaxASes {
		panic("astrie: too many ASes for the synthetic allocation scheme")
	}
	if n > 0 {
		// The IPv4 /16s fill the 16-bit root. The IPv6 /32s under
		// 2a00::/13 need a root, one node under 2a, one per distinct
		// second byte and one per distinct second and third.
		v6Nodes := 2 + (n+65535)/65536 + (n+255)/256
		r.trie.reserve(1<<rootBits[0] + v6Nodes*nodeSlots)
	}
	for o := range n {
		v4, v6 := prefixesOf(o)
		if err := r.trie.Insert(v4, uint32(o)); err != nil {
			panic(err)
		}
		if err := r.trie.Insert(v6, uint32(o)); err != nil {
			panic(err)
		}
	}
	return r
}

// allowedFirstOctets are the IPv4 first octets the synthetic allocator may
// hand out: unicast space minus well-known special-purpose /8s, purely so
// generated traces look plausible in external tools.
var allowedFirstOctets = func() []byte {
	skip := map[byte]bool{10: true, 127: true, 169: true, 172: true, 192: true, 198: true, 203: true}
	var out []byte
	for o := 1; o <= 223; o++ {
		if !skip[byte(o)] {
			out = append(out, byte(o))
		}
	}
	return out
}()

// MaxASes is the capacity of the synthetic allocation scheme (one /16 per AS).
var MaxASes = len(allowedFirstOctets) * 256

// prefixesOf returns the prefix pair allocated to an ordinal: the
// ordinal-th IPv4 /16 from the allowed unicast space, and the ordinal-th
// IPv6 /32 under 2a00::/13.
func prefixesOf(ordinal int) (v4, v6 netip.Prefix) {
	first := allowedFirstOctets[ordinal/256]
	second := byte(ordinal % 256)
	v4 = netip.PrefixFrom(netip.AddrFrom4([4]byte{first, second, 0, 0}), 16)

	var b16 [16]byte
	b16[0], b16[1] = 0x2a, byte(ordinal/65536)
	binary.BigEndian.PutUint16(b16[2:], uint16(ordinal%65536))
	v6 = netip.PrefixFrom(netip.AddrFrom16(b16), 32)
	return v4, v6
}

// asnOf returns the ASN registered at an ordinal.
func (r *Registry) asnOf(ordinal int) uint32 {
	if ordinal < len(r.table1) {
		return r.table1[ordinal].asn
	}
	return LongTailASNBase + uint32(ordinal-len(r.table1))
}

// providerAt returns the provider of the AS at an ordinal.
func (r *Registry) providerAt(ordinal int) Provider {
	if ordinal < len(r.table1) {
		return r.table1[ordinal].provider
	}
	return ProviderOther
}

// ordinalOf returns the ordinal asn is registered at.
func (r *Registry) ordinalOf(asn uint32) (int, bool) {
	if asn >= LongTailASNBase && asn-LongTailASNBase < uint32(r.longTail) {
		return len(r.table1) + int(asn-LongTailASNBase), true
	}
	for o, row := range r.table1 {
		if row.asn == asn {
			return o, true
		}
	}
	return 0, false
}

// Class is what the registry knows about one address: its AS, that AS's
// provider, and whether the address is in a public-DNS egress range.
type Class struct {
	ASN uint32
	// Known reports that the address lies in a registered prefix; when it
	// does not, ASN is 0, Provider is ProviderOther and Public is false.
	Known    bool
	Provider Provider
	Public   bool
}

// Classify answers LookupAddr, ProviderOf and IsPublicDNSAddr in one
// table walk.
func (r *Registry) Classify(a netip.Addr) Class {
	a = a.Unmap()
	o, ok := r.trie.Lookup(a)
	if !ok {
		return Class{}
	}
	// The public flag ResolverAddr sets.
	var public bool
	if a.Is4() {
		public = a.As4()[2]&0x80 != 0
	} else {
		public = a.As16()[4] == publicDNSV6Marker
	}
	return Class{ASN: r.asnOf(int(o)), Known: true, Provider: r.providerAt(int(o)), Public: public}
}

// LookupAddr maps an address to its AS.
func (r *Registry) LookupAddr(a netip.Addr) (uint32, bool) {
	c := r.Classify(a)
	return c.ASN, c.Known
}

// ProviderOf classifies an address into a provider (ProviderOther when the
// address matches no registered prefix or a long-tail AS).
func (r *Registry) ProviderOf(a netip.Addr) Provider { return r.Classify(a).Provider }

// Info returns the registry entry for asn, derived afresh on every call.
func (r *Registry) Info(asn uint32) (*ASInfo, bool) {
	o, ok := r.ordinalOf(asn)
	if !ok {
		return nil, false
	}
	p := r.providerAt(o)
	name := fmt.Sprintf("AS%d", asn)
	if o < len(r.table1) {
		name = fmt.Sprintf("%s-AS%d", p, asn)
	}
	v4, v6 := prefixesOf(o)
	return &ASInfo{ASN: asn, Name: name, Provider: p, V4: v4, V6: v6}, true
}

// NumASes returns the number of registered ASes.
func (r *Registry) NumASes() int { return len(r.table1) + r.longTail }

// publicDNSV6Marker is the byte-4 marker of public-DNS IPv6 resolvers.
const publicDNSV6Marker = 0xDD

// ResolverAddr returns the idx-th synthetic resolver address inside asn's
// allocation. public marks the address as belonging to the provider's
// public DNS egress range (meaningful for Google and Cloudflare, mirroring
// the published Google Public DNS FAQ ranges used in Table 4 of the paper).
//
// IPv4 layout within the /16: host bits = [public bit | 15-bit idx], so up
// to 32768 distinct resolvers per AS per public flag. IPv6 layout within
// the /32: byte 4 is the public marker, trailing 4 bytes are idx.
func (r *Registry) ResolverAddr(asn uint32, v6, public bool, idx uint32) (netip.Addr, error) {
	o, ok := r.ordinalOf(asn)
	if !ok {
		return netip.Addr{}, fmt.Errorf("astrie: unknown ASN %d", asn)
	}
	v4p, v6p := prefixesOf(o)
	if v6 {
		b16 := v6p.Addr().As16()
		if public {
			b16[4] = publicDNSV6Marker
		}
		binary.BigEndian.PutUint32(b16[12:], idx)
		return netip.AddrFrom16(b16), nil
	}
	if idx >= 1<<15 {
		return netip.Addr{}, fmt.Errorf("astrie: IPv4 resolver index %d exceeds /16 public-split capacity", idx)
	}
	host := uint16(idx)
	if public {
		host |= 1 << 15
	}
	// Avoid .0 and .255 last octets purely for realism.
	b4 := v4p.Addr().As4()
	b4[2] = byte(host >> 8)
	b4[3] = byte(host)
	return netip.AddrFrom4(b4), nil
}

// IsPublicDNSAddr reports whether a synthetic resolver address was
// generated with the public flag; combined with ProviderOf it reproduces
// the paper's "queries from Google's advertised Public DNS list"
// classification (Table 4).
func (r *Registry) IsPublicDNSAddr(a netip.Addr) bool { return r.Classify(a).Public }
