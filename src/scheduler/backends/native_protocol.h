// Native backend: hand-coded C++ scheduling — the paper's Figure 2
// comparison point, now a first-class backend behind the same Protocol API
// so its per-cycle cost is benchmarkable against the declarative backends.
//
// The spec's `text` selects a variant:
//   ss2pl          strong 2PL qualification, dispatch by id
//   fcfs           no consistency control, dispatch by id
//   sla-priority   SS2PL qualification, premium tier dispatched first
//   edf            SS2PL qualification, earliest deadline first (0 = none)
//   read-committed readers never block; writers respect write locks
//   wfq            SS2PL qualification, tenants ranked by virtual time
//   drr            SS2PL qualification, tenants ranked by service round
//   tenant-cap     SS2PL qualification minus throttled tenants (in-flight
//                  cap or empty token bucket), dispatch by id
//
// The tenant-aware variants read the per-tenant QoS state off the store's
// typed `tenants` relation — the same rows the SQL/Datalog
// formulations join against — so all four formulations answer identically
// by construction; see docs/PROTOCOLS.md.
//
// The backend is *incremental*: it reads pending straight off the store's
// typed relation (no row decoding) and keeps a LockTableState fed by the
// scheduler's delta hooks, so a cycle costs O(pending + delta) rather than
// O(pending + history). Prefixing the variant with "scratch:" (e.g.
// "scratch:ss2pl") compiles the pre-incremental formulation instead — a
// stateless full-rescan per cycle — kept as the from-scratch baseline the
// equivalence tests and the cycle-scale bench compare against.
//
// The lock analysis matches the SQL (Listing 1) and Datalog formulations
// operation for operation, so the native and declarative backends qualify
// identical request sets — the equivalence the protocol tests pin down.

#ifndef DECLSCHED_SCHEDULER_BACKENDS_NATIVE_PROTOCOL_H_
#define DECLSCHED_SCHEDULER_BACKENDS_NATIVE_PROTOCOL_H_

#include <memory>

#include "scheduler/lock_table.h"
#include "scheduler/protocol.h"

namespace declsched::scheduler {

Result<std::unique_ptr<Protocol>> CompileNativeProtocol(const ProtocolSpec& spec,
                                                        RequestStore* store);

// --- ranking building blocks, shared with the composed backend's stages ---

void RankById(RequestBatch* batch);
void RankByPriority(RequestBatch* batch);
void RankByDeadline(RequestBatch* batch);
/// wfq order: ascending tenant virtual time (from `store`'s tenants
/// mirror; absent tenants rank at vtime 0), ties by id.
void RankByTenantVtime(RequestBatch* batch, const RequestStore& store);
/// drr order: ascending tenant service round, then tenant, then id.
void RankByTenantRound(RequestBatch* batch, const RequestStore& store);
/// tenant-cap filter: drops requests of throttled tenants
/// (TenantAcct::Throttled) — in-flight cap reached, or token bucket empty.
RequestBatch FilterThrottledTenants(RequestBatch batch,
                                    const RequestStore& store);

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_BACKENDS_NATIVE_PROTOCOL_H_
