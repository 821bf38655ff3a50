package service

import (
	"context"
	"sync"
)

// maxTenantLabels caps how many distinct tenant values get their own
// lsrd_tenant_* metric series. Tenant header values are client-supplied,
// so requests from tenants first seen after the cap is reached are
// counted under the label otherTenant; the two per-tenant families
// therefore hold at most maxTenantLabels+1 series each.
const maxTenantLabels = 64

// otherTenant is the metric label shared by tenants past the cap.
const otherTenant = "other"

// tenantTable tracks per-tenant admitted-request counts for the
// admission quota, and the tenant values that have their own metric
// label. Tenants are identified by the configured header value; the
// empty tenant (no header) is exempt — it shares only the global pool.
// An entry is deleted when its count returns to zero, so the table
// holds at most one entry per request in flight.
type tenantTable struct {
	mu     sync.Mutex
	n      map[string]int
	labels map[string]bool
}

func newTenantTable() *tenantTable {
	return &tenantTable{n: map[string]int{}, labels: map[string]bool{}}
}

// acquire admits one request for tenant under the limit; ok is false
// when the tenant is at quota.
func (t *tenantTable) acquire(tenant string, limit int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n[tenant] >= limit {
		return false
	}
	t.n[tenant]++
	return true
}

func (t *tenantTable) release(tenant string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.n[tenant]; c > 1 {
		t.n[tenant] = c - 1
	} else {
		delete(t.n, tenant)
	}
}

// label returns the metric label value for tenant: the tenant itself
// while fewer than maxTenantLabels tenants have one, otherTenant after.
func (t *tenantTable) label(tenant string) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.labels[tenant] {
		return tenant
	}
	if len(t.labels) >= maxTenantLabels {
		return otherTenant
	}
	t.labels[tenant] = true
	return tenant
}

// tenantAcquire applies the per-tenant admission quota. The returned
// release must be called exactly once (it is a no-op when no quota was
// taken).
func (s *Service) tenantAcquire(tenant string) (func(), *Error) {
	if tenant == "" || s.cfg.TenantInflight <= 0 {
		return func() {}, nil
	}
	if !s.tenants.acquire(tenant, s.cfg.TenantInflight) {
		return nil, errOf(KindQuota, "tenant %q is at its admission quota (%d in flight)",
			tenant, s.cfg.TenantInflight)
	}
	return func() { s.tenants.release(tenant) }, nil
}

// tenantKey carries the request's tenant through handler contexts.
type tenantKey struct{}

func withTenant(ctx context.Context, tenant string) context.Context {
	if tenant == "" {
		return ctx
	}
	return context.WithValue(ctx, tenantKey{}, tenant)
}

func tenantFrom(ctx context.Context) string {
	t, _ := ctx.Value(tenantKey{}).(string)
	return t
}
