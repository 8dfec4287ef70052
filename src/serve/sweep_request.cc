#include "src/serve/sweep_request.h"

#include <chrono>
#include <cstdio>

#include "src/core/experiment.h"
#include "src/serve/cell_json.h"
#include "src/workloads/workload_registry.h"

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

/** Expands one workloads[] entry: "@irregular"/"@regular"/"@frontier"/
 *  "@all" into registry enumerations, anything else checked against
 *  the registry — unless @p labels_only, in which case non-group
 *  entries are opaque cell labels (a tenant-mix request runs its
 *  tenants, not the workload axis). */
bool
expandWorkloadEntry(const std::string &entry,
                    std::vector<std::string> *out, std::string *error,
                    bool labels_only)
{
    const WorkloadRegistry &reg = WorkloadRegistry::instance();
    if (entry == "@irregular" || entry == "@regular" ||
        entry == "@frontier") {
        const WorkloadKind kind = entry == "@irregular"
                                      ? WorkloadKind::Irregular
                                  : entry == "@regular"
                                      ? WorkloadKind::Regular
                                      : WorkloadKind::Frontier;
        for (const std::string &name : reg.enumerate(kind))
            out->push_back(name);
        return true;
    }
    if (entry == "@all") {
        for (const std::string &name : reg.enumerate())
            out->push_back(name);
        return true;
    }
    if (!labels_only && !reg.contains(entry))
        return failParse(error, "sweep request: unknown workload '" +
                                    entry + "'");
    out->push_back(entry);
    return true;
}

bool
parseOverrides(const JsonValue &v, std::vector<ConfigOverride> *out,
               std::string *error)
{
    if (!v.isArray())
        return failParse(error,
                         "sweep request: overrides is not an array");
    SimConfig probe; // validate keys without running anything
    for (std::size_t i = 0; i < v.size(); ++i) {
        const JsonValue &o = v.at(i);
        ConfigOverride co;
        co.key = o.getString("key");
        co.value = o.getDouble("value");
        std::string why;
        if (!applyConfigOverride(probe, co.key, co.value, &why))
            return failParse(error, "sweep request: " + why);
        out->push_back(std::move(co));
    }
    return true;
}

} // namespace

bool
parseSweepRequest(const JsonValue &v, SweepRequest *out,
                  std::string *error)
{
    if (!v.isObject())
        return failParse(error, "sweep request is not an object");
    using K = JsonValue::Kind;
    if (const std::string why = memberKindError(
            v, {{"bench", K::String},
                {"scale", K::String},
                {"ratio", K::Number},
                {"seed", K::Number},
                {"audit", K::Bool},
                {"timeout_s", K::Number},
                {"hard_timeout_s", K::Number},
                {"jobs", K::Number},
                {"chunk_cells", K::Number},
                {"flush_cells", K::Number}});
        !why.empty())
        return failParse(error, "sweep request: " + why);
    const std::string schema = v.getString("schema");
    if (schema.rfind(SweepRequest::kSchema, 0) != 0)
        return failParse(error, "sweep request: unsupported schema '" +
                                    schema + "'");
    *out = SweepRequest();
    out->bench = v.getString("bench", "sweep");

    const JsonValue *workloads = v.find("workloads");
    if (!workloads || !workloads->isArray() || workloads->size() == 0)
        return failParse(
            error, "sweep request: workloads must be a non-empty array");
    const bool labels_only = v.find("tenants") != nullptr;
    for (std::size_t i = 0; i < workloads->size(); ++i) {
        const JsonValue &entry = workloads->at(i);
        if (!entry.isString())
            return failParse(
                error, "sweep request: workloads[] entries are strings");
        if (!expandWorkloadEntry(entry.asString(), &out->workloads,
                                 error, labels_only))
            return false;
    }

    if (const JsonValue *policies = v.find("policies")) {
        if (!policies->isArray() || policies->size() == 0)
            return failParse(error, "sweep request: policies must be a "
                                    "non-empty array");
        for (std::size_t i = 0; i < policies->size(); ++i) {
            const JsonValue &entry = policies->at(i);
            Policy p;
            if (!entry.isString() ||
                !policyFromNameSafe(entry.asString(), &p))
                return failParse(
                    error, "sweep request: unknown policy '" +
                               (entry.isString() ? entry.asString()
                                                 : std::string("?")) +
                               "'");
            out->policies.push_back(p);
        }
    } else {
        out->policies = allPolicies();
    }

    if (const JsonValue *variants = v.find("variants")) {
        if (!variants->isArray() || variants->size() == 0)
            return failParse(error, "sweep request: variants must be a "
                                    "non-empty array");
        for (std::size_t i = 0; i < variants->size(); ++i) {
            const JsonValue &entry = variants->at(i);
            if (!entry.isObject())
                return failParse(
                    error, "sweep request: variants[] entries are "
                           "objects");
            RequestVariant var;
            var.label = entry.getString("label");
            if (const JsonValue *ov = entry.find("overrides")) {
                if (!parseOverrides(*ov, &var.overrides, error))
                    return false;
            }
            out->variants.push_back(std::move(var));
        }
    } else {
        out->variants.push_back(RequestVariant());
    }

    const std::string scale = v.getString("scale", "small");
    if (!scaleFromName(scale, &out->scale))
        return failParse(
            error, "sweep request: unknown scale '" + scale + "'");
    out->ratio = v.getDouble("ratio", 0.5);
    if (!validRunReal(out->ratio))
        return failParse(error, "sweep request: ratio must be a finite "
                                "number >= 0");
    out->seed = v.getU64("seed", 1);
    out->audit = v.getBool("audit", false);
    if (const JsonValue *tenants = v.find("tenants")) {
        if (!tenants->isArray() || tenants->size() < 2)
            return failParse(error,
                             "sweep request: tenants must be an array "
                             "of at least two entries");
        const WorkloadRegistry &reg = WorkloadRegistry::instance();
        for (std::size_t i = 0; i < tenants->size(); ++i) {
            const JsonValue &t = tenants->at(i);
            if (const std::string why = memberKindError(
                    t, {{"workload", JsonValue::Kind::String},
                        {"quota", JsonValue::Kind::Number}});
                !why.empty())
                return failParse(error, "sweep request: tenant " + why);
            TenantSpec spec;
            spec.workload = t.getString("workload");
            if (!reg.contains(spec.workload))
                return failParse(error,
                                 "sweep request: unknown tenant "
                                 "workload '" +
                                     spec.workload + "'");
            spec.quota = t.getDouble("quota", 0.0);
            if (!validRunReal(spec.quota))
                return failParse(error,
                                 "sweep request: tenant quota must be a "
                                 "finite number >= 0");
            spec.scale = out->scale;
            out->tenants.push_back(std::move(spec));
        }
    }
    if (const JsonValue *policy = v.find("share_policy")) {
        if (!policy->isString())
            return failParse(
                error, "sweep request: share_policy is not a string");
        const std::string name = policy->asString();
        if (name == "free-for-all")
            out->share_policy = SharePolicy::FreeForAll;
        else if (name == "strict")
            out->share_policy = SharePolicy::StrictQuota;
        else if (name == "proportional")
            out->share_policy = SharePolicy::Proportional;
        else
            return failParse(error,
                             "sweep request: unknown share_policy '" +
                                 name + "'");
    }
    out->timeout_s = v.getDouble("timeout_s", 0.0);
    out->hard_timeout_s = v.getDouble("hard_timeout_s", 0.0);
    if (!validRunReal(out->timeout_s) ||
        !validRunReal(out->hard_timeout_s))
        return failParse(error, "sweep request: timeouts must be finite "
                                "numbers >= 0");
    out->jobs = static_cast<std::size_t>(v.getU64("jobs", 1));
    if (out->jobs == 0)
        out->jobs = 1;
    out->chunk_cells =
        static_cast<std::size_t>(v.getU64("chunk_cells", 1));
    if (out->chunk_cells == 0)
        out->chunk_cells = 1;
    out->flush_cells =
        static_cast<std::size_t>(v.getU64("flush_cells", 8));
    if (out->flush_cells == 0)
        out->flush_cells = 1;
    return true;
}

void
writeSweepRequest(JsonWriter &w, const SweepRequest &req)
{
    w.beginObject();
    w.field("schema", SweepRequest::kSchema);
    w.field("bench", req.bench);
    w.beginArray("workloads");
    for (const std::string &name : req.workloads)
        w.value(name);
    w.endArray();
    w.beginArray("policies");
    for (Policy p : req.policies)
        w.value(policyName(p));
    w.endArray();
    w.beginArray("variants");
    for (const RequestVariant &var : req.variants) {
        w.beginObject();
        w.field("label", var.label);
        w.beginArray("overrides");
        for (const ConfigOverride &o : var.overrides) {
            w.beginObject();
            w.field("key", o.key);
            w.field("value", o.value);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.field("scale", scaleName(req.scale));
    w.field("ratio", req.ratio);
    w.field("seed", req.seed);
    w.field("audit", req.audit);
    if (!req.tenants.empty()) {
        w.beginArray("tenants");
        for (const TenantSpec &t : req.tenants) {
            w.beginObject();
            w.field("workload", t.workload);
            w.field("quota", t.quota);
            w.endObject();
        }
        w.endArray();
        w.field("share_policy", sharePolicyName(req.share_policy));
    }
    w.field("timeout_s", req.timeout_s);
    w.field("hard_timeout_s", req.hard_timeout_s);
    w.field("jobs", static_cast<std::uint64_t>(req.jobs));
    w.field("chunk_cells",
            static_cast<std::uint64_t>(req.chunk_cells));
    w.field("flush_cells",
            static_cast<std::uint64_t>(req.flush_cells));
    w.endObject();
}

std::vector<CellSpec>
expandCells(const SweepRequest &req)
{
    std::vector<CellSpec> cells;
    cells.reserve(req.variants.size() * req.workloads.size() *
                  req.policies.size());
    // Variant-major -> workload -> policy: the SweepRunner expansion
    // order, so merged daemon results line up with serial sweeps.
    for (const RequestVariant &var : req.variants) {
        for (const std::string &workload : req.workloads) {
            for (Policy policy : req.policies) {
                CellSpec cell;
                cell.workload = workload;
                cell.policy = policy;
                cell.variant = var.label;
                cell.overrides = var.overrides;
                cell.scale = req.scale;
                cell.ratio = req.ratio;
                cell.base_seed = req.seed;
                cell.audit = req.audit;
                if (!req.tenants.empty()) {
                    cell.tenants = req.tenants;
                    for (TenantSpec &t : cell.tenants)
                        t.scale = req.scale;
                    cell.overrides.push_back(
                        {"mt.policy",
                         static_cast<double>(req.share_policy)});
                }
                cells.push_back(std::move(cell));
            }
        }
    }
    return cells;
}

SweepResult
runRequestSerial(const SweepRequest &req, bool verbose)
{
    const std::vector<CellSpec> cells = expandCells(req);

    SweepResult result;
    result.bench = req.bench;
    result.base_seed = req.seed;
    result.scale = req.scale;
    result.ratio = req.ratio;
    result.jobs = 1;
    result.cells.reserve(cells.size());

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const CellSpec &spec = cells[i];
        CellExecArgs args;
        args.workload = spec.workload;
        args.policy = spec.policy;
        args.variant = spec.variant;
        args.job_seed = cellJobSeed(spec);
        args.scale = spec.scale;
        args.config = cellConfig(spec);
        args.soft_timeout_s = req.timeout_s;
        args.tenants = spec.tenants;
        result.cells.push_back(executeCell(args));
        if (verbose) {
            const CellOutcome &cell = result.cells.back();
            std::fprintf(stderr, "  [%zu/%zu] %s/%s%s%s %s %.2fs\n",
                         i + 1, cells.size(), cell.workload.c_str(),
                         policyName(cell.policy).c_str(),
                         cell.variant.empty() ? "" : " ",
                         cell.variant.c_str(),
                         cell.ok ? "ok" : "FAILED", cell.wall_s);
        }
    }
    result.elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    return result;
}

} // namespace bauvm
