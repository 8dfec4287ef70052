#include "src/serve/cell_json.h"

#include "src/core/experiment.h"
#include "src/sim/log.h"

namespace bauvm
{

namespace
{

bool
failParse(std::string *error, const std::string &what)
{
    if (error)
        *error = what;
    return false;
}

} // namespace

bool
policyFromNameSafe(const std::string &name, Policy *out)
{
    for (Policy p :
         {Policy::Baseline, Policy::BaselinePcieComp, Policy::To,
          Policy::Ue, Policy::ToUe, Policy::Etc, Policy::IdealEviction,
          Policy::Unlimited}) {
        if (policyName(p) == name) {
            *out = p;
            return true;
        }
    }
    return false;
}

bool
scaleFromName(const std::string &name, WorkloadScale *out)
{
    for (WorkloadScale s :
         {WorkloadScale::Tiny, WorkloadScale::Small,
          WorkloadScale::Medium, WorkloadScale::Large,
          WorkloadScale::Huge}) {
        if (scaleName(s) == name) {
            *out = s;
            return true;
        }
    }
    return false;
}

void
writeCellSpec(JsonWriter &w, const CellSpec &spec)
{
    w.beginObject();
    w.field("workload", spec.workload);
    w.field("policy", policyName(spec.policy));
    w.field("variant", spec.variant);
    w.beginArray("overrides");
    for (const ConfigOverride &o : spec.overrides) {
        w.beginObject();
        w.field("key", o.key);
        w.field("value", o.value);
        w.endObject();
    }
    w.endArray();
    w.field("scale", scaleName(spec.scale));
    w.field("ratio", spec.ratio);
    w.field("seed", spec.base_seed);
    w.field("audit", spec.audit);
    if (!spec.tenants.empty()) {
        w.beginArray("tenants");
        for (const TenantSpec &t : spec.tenants) {
            w.beginObject();
            w.field("workload", t.workload);
            w.field("quota", t.quota);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
}

bool
parseCellSpec(const JsonValue &v, CellSpec *out, std::string *error)
{
    if (!v.isObject())
        return failParse(error, "cell spec is not an object");
    using K = JsonValue::Kind;
    if (const std::string why = memberKindError(
            v, {{"workload", K::String},
                {"policy", K::String},
                {"variant", K::String},
                {"scale", K::String},
                {"ratio", K::Number},
                {"seed", K::Number},
                {"audit", K::Bool}});
        !why.empty())
        return failParse(error, "cell spec: " + why);
    *out = CellSpec();
    out->workload = v.getString("workload");
    if (out->workload.empty())
        return failParse(error, "cell spec: missing workload");
    const std::string policy = v.getString("policy", "BASELINE");
    if (!policyFromNameSafe(policy, &out->policy))
        return failParse(error,
                         "cell spec: unknown policy '" + policy + "'");
    out->variant = v.getString("variant");
    const std::string scale = v.getString("scale", "small");
    if (!scaleFromName(scale, &out->scale))
        return failParse(error,
                         "cell spec: unknown scale '" + scale + "'");
    out->ratio = v.getDouble("ratio", 0.5);
    if (!validRunReal(out->ratio))
        return failParse(error,
                         "cell spec: ratio must be a finite number >= 0");
    out->base_seed = v.getU64("seed", 1);
    out->audit = v.getBool("audit", false);
    if (const JsonValue *overrides = v.find("overrides")) {
        if (!overrides->isArray())
            return failParse(error,
                             "cell spec: overrides is not an array");
        SimConfig probe; // validate keys without running anything
        for (std::size_t i = 0; i < overrides->size(); ++i) {
            const JsonValue &o = overrides->at(i);
            ConfigOverride co;
            co.key = o.getString("key");
            co.value = o.getDouble("value");
            std::string why;
            if (!applyConfigOverride(probe, co.key, co.value, &why))
                return failParse(error, "cell spec: " + why);
            out->overrides.push_back(std::move(co));
        }
    }
    if (const JsonValue *tenants = v.find("tenants")) {
        if (!tenants->isArray())
            return failParse(error,
                             "cell spec: tenants is not an array");
        for (std::size_t i = 0; i < tenants->size(); ++i) {
            const JsonValue &t = tenants->at(i);
            if (const std::string why = memberKindError(
                    t, {{"workload", K::String}, {"quota", K::Number}});
                !why.empty())
                return failParse(error, "cell spec: tenant " + why);
            TenantSpec spec;
            spec.workload = t.getString("workload");
            if (spec.workload.empty())
                return failParse(
                    error, "cell spec: tenant without workload");
            spec.quota = t.getDouble("quota", 0.0);
            if (!validRunReal(spec.quota))
                return failParse(error,
                                 "cell spec: tenant quota must be a "
                                 "finite number >= 0");
            spec.scale = out->scale; // tenants share the cell scale
            out->tenants.push_back(std::move(spec));
        }
        if (out->tenants.size() == 1)
            return failParse(error,
                             "cell spec: a tenant mix needs at least "
                             "two tenants");
    }
    return true;
}

bool
parseCellOutcome(const JsonValue &v, CellOutcome *out,
                 std::string *error)
{
    if (!v.isObject())
        return failParse(error, "cell outcome is not an object");
    *out = CellOutcome();
    out->workload = v.getString("workload");
    if (out->workload.empty())
        return failParse(error, "cell outcome: missing workload");
    const std::string policy = v.getString("policy", "BASELINE");
    if (!policyFromNameSafe(policy, &out->policy))
        return failParse(
            error, "cell outcome: unknown policy '" + policy + "'");
    out->variant = v.getString("variant");
    out->seed = v.getU64("seed");
    out->job_seed = v.getU64("job_seed");
    out->ok = v.getBool("ok");
    out->timed_out = v.getBool("timed_out");
    out->error = v.getString("error");
    out->wall_s = v.getDouble("wall_s");
    out->digest = v.getString("digest");
    out->worker_pid = v.getU64("worker_pid");
    out->hostname = v.getString("hostname");
    out->from_cache = v.getBool("cached");

    if (!out->ok)
        return true;
    const JsonValue *r = v.find("result");
    if (!r || !r->isObject())
        return failParse(error, "cell outcome: ok without result");

    RunResult &res = out->result;
    res.workload = out->workload;
    res.seed = out->seed;
    res.cycles = r->getU64("cycles");
    res.kernels = r->getU64("kernels");
    res.instructions = r->getU64("instructions");
    res.footprint_bytes = r->getU64("footprint_bytes");
    res.capacity_pages = r->getU64("capacity_pages");
    res.batches = r->getU64("batches");
    res.avg_batch_pages = r->getDouble("avg_batch_pages");
    res.avg_batch_time = r->getDouble("avg_batch_time");
    res.avg_handling_time = r->getDouble("avg_handling_time");
    res.demand_pages = r->getU64("demand_pages");
    res.prefetched_pages = r->getU64("prefetched_pages");
    res.migrations = r->getU64("migrations");
    res.evictions = r->getU64("evictions");
    res.premature_evictions = r->getU64("premature_evictions");
    res.premature_rate = r->getDouble("premature_rate");
    res.context_switches = r->getU64("context_switches");
    res.context_switch_cycles = r->getU64("context_switch_cycles");
    res.pcie_h2d_bytes = r->getU64("pcie_h2d_bytes");
    res.pcie_d2h_bytes = r->getU64("pcie_d2h_bytes");
    res.translations = r->getU64("translations");
    res.tlb_hit_rate = r->getDouble("tlb_hit_rate");
    res.faults_per_kcycle = r->getDouble("faults_per_kcycle");
    res.sim_events = r->getU64("sim_events");
    res.host_wall_s = r->getDouble("host_wall_s");
    res.events_per_sec = r->getDouble("events_per_sec");

    if (const JsonValue *tenants = r->find("tenants")) {
        if (!tenants->isArray())
            return failParse(
                error, "cell outcome: tenants is not an array");
        res.tenants.reserve(tenants->size());
        for (std::size_t i = 0; i < tenants->size(); ++i) {
            const JsonValue &t = tenants->at(i);
            TenantResult tr;
            tr.id = static_cast<TenantId>(t.getU64("id"));
            tr.workload = t.getString("workload");
            tr.seed = t.getU64("seed");
            tr.cycles = t.getU64("cycles");
            tr.kernels = t.getU64("kernels");
            tr.instructions = t.getU64("instructions");
            tr.footprint_bytes = t.getU64("footprint_bytes");
            tr.quota_pages = t.getU64("quota_pages");
            tr.demand_pages = t.getU64("demand_pages");
            tr.evictions_caused = t.getU64("evictions_caused");
            tr.evictions_suffered = t.getU64("evictions_suffered");
            tr.peak_resident_pages = t.getU64("peak_resident_pages");
            tr.avg_lifetime_cycles =
                t.getDouble("avg_lifetime_cycles");
            tr.slowdown = t.getDouble("slowdown");
            res.tenants.push_back(std::move(tr));
        }
    }

    // writeCellJson emits batch_records as a sibling of "result" on
    // the cell object (not inside it) — read it from there, or every
    // cache round-trip would silently drop the records.
    if (const JsonValue *records = v.find("batch_records")) {
        if (!records->isArray())
            return failParse(
                error, "cell outcome: batch_records is not an array");
        res.batch_records.reserve(records->size());
        for (std::size_t i = 0; i < records->size(); ++i) {
            const JsonValue &b = records->at(i);
            if (!b.isArray() || b.size() != 7)
                return failParse(error,
                                 "cell outcome: malformed batch record");
            BatchRecord rec;
            rec.begin = b.at(0).asU64();
            rec.first_transfer = b.at(1).asU64();
            rec.end = b.at(2).asU64();
            rec.fault_pages =
                static_cast<std::uint32_t>(b.at(3).asU64());
            rec.prefetch_pages =
                static_cast<std::uint32_t>(b.at(4).asU64());
            rec.duplicate_faults =
                static_cast<std::uint32_t>(b.at(5).asU64());
            rec.migrated_bytes = b.at(6).asU64();
            res.batch_records.push_back(rec);
        }
    }
    return true;
}

} // namespace bauvm
