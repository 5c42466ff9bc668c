package service

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/goldrec/goldrec/internal/tenant"
)

// Tenancy sentinels the HTTP layer maps to status codes (alongside the
// ones in service.go).
var (
	// ErrUnauthorized means the request presented no API key, or one the
	// registry does not know. 401.
	ErrUnauthorized = errors.New("unauthorized")
	// ErrForbidden means the key authenticated but may not perform this
	// operation (a tenant key on an admin endpoint). 403.
	ErrForbidden = errors.New("forbidden")
	// ErrQuota means the tenant's resource quota is exhausted. 403.
	ErrQuota = errors.New("quota exceeded")
)

// RateLimitError rejects a decision because the tenant's decisions/sec
// bucket is empty. The HTTP layer maps it to 429 with a Retry-After
// header advertising when the next token accrues.
type RateLimitError struct {
	RetryAfter time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("rate limit exceeded, retry in %v", e.RetryAfter.Round(time.Millisecond))
}

// Scope is the service's data API as seen by one principal: every
// dataset, session, review, plan and library operation is a Scope
// method. A tenant-scoped view (owner = tenant id) sees and mutates
// only that tenant's datasets and sessions — foreign ids read as 404,
// never 403, so nothing about other tenants' id space is observable —
// and is subject to the tenant's quotas and rate limits. The unscoped
// view, s.As(""), serves open mode and the admin key and sees
// everything.
type Scope struct {
	svc   *Service
	owner string
	ctx   context.Context
}

// As returns the service as seen by the given tenant ("" = unscoped).
func (s *Service) As(owner string) Scope {
	return Scope{svc: s, owner: owner, ctx: context.Background()}
}

// WithContext returns the scope bound to a request context, so trace
// spans opened by the layers below (engine phases, store WAL writes)
// attach to the request's trace. A nil ctx keeps the background one.
func (sc Scope) WithContext(ctx context.Context) Scope {
	if ctx != nil {
		sc.ctx = ctx
	}
	return sc
}

// Owner returns the scope's tenant id ("" when unscoped).
func (sc Scope) Owner() string { return sc.owner }

// admissionLock returns the tenant's admission mutex, creating it on
// first use. Admissions are rare (dataset uploads, session opens), so
// the map only ever holds a handful of entries.
func (s *Service) admissionLock(owner string) *sync.Mutex {
	s.mu.Lock()
	defer s.mu.Unlock()
	mu, ok := s.admitMu[owner]
	if !ok {
		mu = &sync.Mutex{}
		s.admitMu[owner] = mu
	}
	return mu
}

// quotasFor returns the tenant's quotas. ok is false in open mode or
// when the tenant is gone (deleted mid-flight) — both unlimited.
func (s *Service) quotasFor(owner string) (tenant.Quotas, bool) {
	if s.opts.Tenants == nil || owner == "" {
		return tenant.Quotas{}, false
	}
	info, err := s.opts.Tenants.Get(owner)
	if err != nil {
		return tenant.Quotas{}, false
	}
	return info.Quotas, true
}

// uploadLimitFor resolves the effective upload cap for one principal:
// the stricter of the service-wide -max-upload-bytes and the tenant's
// MaxUploadBytes quota (0 = unlimited on both axes).
func (s *Service) uploadLimitFor(owner string) int64 {
	limit := s.opts.MaxUploadBytes
	if q, ok := s.quotasFor(owner); ok && q.MaxUploadBytes > 0 {
		if limit == 0 || q.MaxUploadBytes < limit {
			limit = q.MaxUploadBytes
		}
	}
	return limit
}
