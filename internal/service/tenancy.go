package service

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"github.com/goldrec/goldrec"
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

// Scope is the service API as seen by one principal. A tenant-scoped
// view (owner = tenant id) sees and mutates only that tenant's datasets
// and sessions — foreign ids read as 404, never 403, so nothing about
// other tenants' id space is observable — and is subject to the
// tenant's quotas and rate limits. The unscoped view (owner = "",
// produced for open mode and for the admin key) is the full pre-tenancy
// API.
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

func (sc Scope) CreateDataset(name, keyCol, srcCol string, csv io.Reader) (DatasetInfo, error) {
	return sc.svc.createDataset(sc.ctx, sc.owner, name, keyCol, srcCol, csv)
}

func (sc Scope) GetDataset(id string) (DatasetInfo, error) {
	return sc.svc.getDatasetInfo(sc.owner, id)
}

func (sc Scope) ListDatasets() []DatasetInfo { return sc.svc.listDatasets(sc.owner) }

func (sc Scope) DeleteDataset(id string) error { return sc.svc.deleteDataset(sc.owner, id) }

func (sc Scope) OpenSession(datasetID, column string) (SessionInfo, error) {
	return sc.svc.openSession(sc.ctx, sc.owner, datasetID, column)
}

func (sc Scope) GetSession(id string) (SessionInfo, error) {
	return sc.svc.getSessionInfo(sc.owner, id)
}

func (sc Scope) ListSessions() []SessionInfo { return sc.svc.listSessions(sc.owner) }

func (sc Scope) DeleteSession(id string) error { return sc.svc.deleteSession(sc.ctx, sc.owner, id) }

func (sc Scope) PendingGroups(id string, limit int, wait <-chan struct{}) (GroupPage, error) {
	page, _, _, err := sc.svc.waitPage(sc.owner, "", id, limit, wait)
	return page, err
}

func (sc Scope) Decide(id string, groupID int, decision goldrec.Decision) (DecisionResult, error) {
	return sc.svc.decide(sc.ctx, sc.owner, id, groupID, decision)
}

func (sc Scope) DecideBatch(datasetID, id string, reqs []DecisionRequest) (BatchDecisionsResult, error) {
	return sc.svc.decideBatch(sc.ctx, sc.owner, datasetID, id, reqs)
}

func (sc Scope) ReviewState(id string) (goldrec.ReviewState, error) {
	return sc.svc.reviewState(sc.owner, id)
}

func (sc Scope) Export(datasetID string, golden bool) (ExportData, error) {
	return sc.svc.export(sc.ctx, sc.owner, datasetID, golden)
}

func (sc Scope) Plan(budget int) (BudgetPlan, error) { return sc.svc.plan(sc.owner, budget) }

func (sc Scope) PlanDataset(datasetID string, budget int) (BudgetPlan, error) {
	return sc.svc.planDataset(sc.owner, datasetID, budget)
}

// Library returns the scope's transformation memory: the per-program
// approve/reject stats accumulated across the owner's uploads. A
// tenant only ever sees (and deletes) its own library; the unscoped
// view addresses the open-mode library.
func (sc Scope) Library() LibraryInfo { return sc.svc.libraryInfo(sc.owner) }

// DeleteLibrary purges the scope's transformation memory: future
// uploads open cold until new decisions accumulate.
func (sc Scope) DeleteLibrary() error { return sc.svc.deleteLibrary(sc.ctx, sc.owner) }

// The *Service methods below are the unscoped view under the
// pre-tenancy names, so library users and tests keep working untouched.

func (s *Service) CreateDataset(name, keyCol, srcCol string, csv io.Reader) (DatasetInfo, error) {
	return s.As("").CreateDataset(name, keyCol, srcCol, csv)
}
func (s *Service) GetDataset(id string) (DatasetInfo, error) { return s.As("").GetDataset(id) }
func (s *Service) ListDatasets() []DatasetInfo               { return s.As("").ListDatasets() }
func (s *Service) DeleteDataset(id string) error             { return s.As("").DeleteDataset(id) }
func (s *Service) OpenSession(datasetID, column string) (SessionInfo, error) {
	return s.As("").OpenSession(datasetID, column)
}
func (s *Service) GetSession(id string) (SessionInfo, error) { return s.As("").GetSession(id) }
func (s *Service) ListSessions() []SessionInfo               { return s.As("").ListSessions() }
func (s *Service) DeleteSession(id string) error             { return s.As("").DeleteSession(id) }
func (s *Service) PendingGroups(id string, limit int, wait <-chan struct{}) (GroupPage, error) {
	return s.As("").PendingGroups(id, limit, wait)
}
func (s *Service) Decide(id string, groupID int, decision goldrec.Decision) (DecisionResult, error) {
	return s.As("").Decide(id, groupID, decision)
}
func (s *Service) DecideBatch(datasetID, id string, reqs []DecisionRequest) (BatchDecisionsResult, error) {
	return s.As("").DecideBatch(datasetID, id, reqs)
}
func (s *Service) ReviewState(id string) (goldrec.ReviewState, error) {
	return s.As("").ReviewState(id)
}
func (s *Service) Export(datasetID string, golden bool) (ExportData, error) {
	return s.As("").Export(datasetID, golden)
}
func (s *Service) Plan(budget int) (BudgetPlan, error) { return s.As("").Plan(budget) }
func (s *Service) PlanDataset(datasetID string, budget int) (BudgetPlan, error) {
	return s.As("").PlanDataset(datasetID, budget)
}
func (s *Service) Library() LibraryInfo { return s.As("").Library() }
func (s *Service) DeleteLibrary() error { return s.As("").DeleteLibrary() }

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
