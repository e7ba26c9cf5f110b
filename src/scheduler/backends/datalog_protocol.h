// Datalog backend: the protocol text is a stratified Datalog program over
// the req/hist EDB relations; the spec's datalog_output names the derived
// relation of qualified requests (paper Section 5's "more succinct
// language").
//
// Compile-first: the rule AST is lowered into the protocol IR
// (scheduler/ir/) and executed over the store's typed relations with
// incremental lock state. Programs outside the IR dialect fall back
// transparently to the semi-naive interpreted engine; prefixing the spec
// text with "interp:" forces the interpreter, the differential-oracle
// variant the equivalence tests and benches compare against.

#ifndef DECLSCHED_SCHEDULER_BACKENDS_DATALOG_PROTOCOL_H_
#define DECLSCHED_SCHEDULER_BACKENDS_DATALOG_PROTOCOL_H_

#include <memory>

#include "scheduler/protocol.h"

namespace declsched::scheduler {

Result<std::unique_ptr<Protocol>> CompileDatalogProtocol(
    const ProtocolSpec& spec, RequestStore* store);

}  // namespace declsched::scheduler

#endif  // DECLSCHED_SCHEDULER_BACKENDS_DATALOG_PROTOCOL_H_
