package guard

import (
	"errors"
	"fmt"
	"sync"

	"policyinject/internal/flow"
)

// ErrMaskQuota is the sentinel wrapped by every quota rejection, so the
// datapath can classify the install error without importing this
// package's internals.
var ErrMaskQuota = errors.New("tenant mask quota exceeded")

// MaskQuotaConfig tunes the per-tenant mask ledger.
type MaskQuotaConfig struct {
	// PerTenant is the maximum number of live megaflow masks one tenant
	// may have minted at a time (default 512). Masks minted on traffic
	// whose port is bound to no tenant are exempt.
	PerTenant int
}

func (c *MaskQuotaConfig) setDefaults() {
	if c.PerTenant <= 0 {
		c.PerTenant = 512
	}
}

// MaskLedger attributes megaflow masks to tenants and enforces the
// per-tenant quota. The CMS binds each pod port to its tenant (the
// ledger implements the cms.PortBinder hook); the megaflow cache asks
// the ledger (via the dataplane.MaskGuard hook) before minting a new
// subtable and notifies it on mint and drop. Attribution keys off the
// exact in_port every CMS-scoped megaflow match carries: the port the
// mask-minting packet arrived on names the tenant that pays for it.
//
// Quota-exceeded tenants get their new masks (and so the entries that
// needed them) refused; every other tenant keeps installing into masks
// it minted or that already exist — the victim stays isolated from the
// attacker's mask budget.
// On a sharded datapath the mint/drop hooks arrive serialized by the
// sharded megaflow's cross-shard ledger lock, but BindPort (pod
// deployment) and the accessors run from the control plane concurrently
// with traffic — so the ledger carries its own mutex and every method
// locks, making it safe from any goroutine.
type MaskLedger struct {
	cfg MaskQuotaConfig

	mu       sync.Mutex
	tenantOf map[uint32]string    // port -> tenant
	owner    map[flow.Mask]string // live mask -> minting tenant
	live     map[string]int       // tenant -> live mask count

	minted  uint64
	rejects uint64
}

// NewMaskLedger builds a ledger (zero config: 512 masks per tenant).
func NewMaskLedger(cfg MaskQuotaConfig) *MaskLedger {
	cfg.setDefaults()
	return &MaskLedger{
		cfg:      cfg,
		tenantOf: make(map[uint32]string),
		owner:    make(map[flow.Mask]string),
		live:     make(map[string]int),
	}
}

// BindPort records that a switch port belongs to a tenant (the
// cms.PortBinder hook, called on pod deployment).
func (l *MaskLedger) BindPort(port uint32, tenant string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.tenantOf[port] = tenant
}

// fullPort is a fully-masked 32-bit in_port field.
const fullPort = 1<<32 - 1

// tenantForLocked attributes a match: the tenant bound to its exact
// in_port, or "" when the in_port is not exact or the port is unbound.
// Callers hold l.mu.
func (l *MaskLedger) tenantForLocked(m flow.Match) string {
	if flow.Key(m.Mask).Get(flow.FieldInPort) != fullPort {
		return ""
	}
	return l.tenantOf[uint32(m.Key.Get(flow.FieldInPort))]
}

// AdmitMask decides whether the tenant behind the match may mint one
// more mask (the dataplane.MaskGuard hook, consulted before a new
// subtable is created). A nil error admits.
func (l *MaskLedger) AdmitMask(m flow.Match) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	tenant := l.tenantForLocked(m)
	if tenant == "" {
		return nil
	}
	if n := l.live[tenant]; n >= l.cfg.PerTenant {
		l.rejects++
		return fmt.Errorf("%w: tenant %q holds %d masks (quota %d)", ErrMaskQuota, tenant, n, l.cfg.PerTenant)
	}
	return nil
}

// MaskMinted records that the match's subtable was created, charging
// the mask to the minting tenant. A mask that is already live keeps its
// original owner (the cache only mints a mask once; this guards the
// ledger against double charging regardless).
func (l *MaskLedger) MaskMinted(m flow.Match) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.minted++
	tenant := l.tenantForLocked(m)
	if tenant == "" {
		return
	}
	if _, exists := l.owner[m.Mask]; exists {
		return
	}
	l.owner[m.Mask] = tenant
	l.live[tenant]++
}

// MaskDropped releases a mask's quota charge when its subtable dies
// (eviction, trim, revalidation or a wholesale flush).
func (l *MaskLedger) MaskDropped(mask flow.Mask) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tenant, ok := l.owner[mask]
	if !ok {
		return
	}
	delete(l.owner, mask)
	if l.live[tenant]--; l.live[tenant] <= 0 {
		delete(l.live, tenant)
	}
}

// Owner returns the tenant a live mask is attributed to ("" if none).
func (l *MaskLedger) Owner(mask flow.Mask) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.owner[mask]
}

// Minted returns the total masks minted through the ledger.
func (l *MaskLedger) Minted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.minted
}

// Rejects returns the total quota rejections.
func (l *MaskLedger) Rejects() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rejects
}
