/**
 * @file
 * atomic-order: explicit memory_order on every atomic operation in
 * the concurrency core, plus machine-checked `// glider-mo: <role>`
 * contracts on atomic data members. Two phases:
 *
 *  A. Walk class bodies in the in-scope files and collect every
 *     `std::atomic<...>` / `std::atomic_flag` data member. Each must
 *     carry a glider-mo contract comment (trailing, or on the line
 *     above) naming a role from the vocabulary below.
 *  B. Walk every in-scope file's uses: explicit member operations
 *     (.load, .store, .fetch_add, ...) must pass at least one
 *     std::memory_order argument, and every order passed must be in
 *     the role's admissible set. Bare uses of a contracted member
 *     inside its own class's methods (`stop_ = true`, `++ctr_`,
 *     `while (!stop_)`) route through the implicit seq_cst
 *     operators and are findings too.
 *
 * Role vocabulary (DESIGN.md "Static analysis"):
 *   counter-relaxed  monotonic statistic, never synchronizes-with
 *   flag-relaxed     poll-only flag, no data published under it
 *   publish          release-store / acquire-load handoff of data
 *   seqlock          sequence word of a seqlock (acq/rel + relaxed)
 *   gate-seqcst      flag needing a total order across threads
 */

#include "lint/atomic_order.hh"

#include <cstddef>
#include <map>

namespace glider {
namespace lint {

namespace {

struct Member
{
    std::string name;
    std::string cls;  //!< owning class
    std::string role; //!< "" when the contract is missing/unknown
};

const std::map<std::string, std::set<std::string>> &
roleVocabulary()
{
    static const std::map<std::string, std::set<std::string>> roles =
        {{"counter-relaxed", {"relaxed"}},
         {"flag-relaxed", {"relaxed"}},
         {"publish",
          {"relaxed", "acquire", "release", "acq_rel", "consume"}},
         {"seqlock", {"relaxed", "acquire", "release", "acq_rel"}},
         {"gate-seqcst", {"seq_cst", "relaxed"}}};
    return roles;
}

bool
inScope(const std::string &rel)
{
    return startsWith(rel, "src/serve/")
        || rel == "src/common/thread_pool.hh"
        || rel == "src/common/cancellation.hh"
        || startsWith(rel, "src/common/cpu_budget.")
        || startsWith(rel, "src/cachesim/replay_stages.");
}

bool
isAtomicOp(const std::string &s)
{
    static const std::set<std::string> ops = {
        "load", "store", "exchange", "fetch_add", "fetch_sub",
        "fetch_and", "fetch_or", "fetch_xor",
        "compare_exchange_weak", "compare_exchange_strong",
        "test_and_set", "clear"};
    return ops.count(s) != 0;
}

/** Orders named in the balanced parens opening at @p open. */
std::vector<std::string>
ordersInArgs(const FileCtx &ctx, std::size_t open)
{
    std::vector<std::string> orders;
    int depth = 0;
    for (std::size_t j = open; j < ctx.toks.size(); ++j) {
        const Token &t = ctx.toks[j];
        if (t.text == "(")
            ++depth;
        else if (t.text == ")" && --depth == 0)
            break;
        if (t.kind != Token::Kind::Ident)
            continue;
        if (startsWith(t.text, "memory_order_"))
            orders.push_back(t.text.substr(13));
        else if (t.text == "memory_order" && j + 2 < ctx.toks.size()
                 && ctx.toks[j + 1].text == "::"
                 && ctx.toks[j + 2].kind == Token::Kind::Ident)
            orders.push_back(ctx.toks[j + 2].text);
    }
    return orders;
}

std::string
joinRoles()
{
    std::string out;
    for (const auto &kv : roleVocabulary()) {
        if (!out.empty())
            out += ", ";
        out += kv.first;
    }
    return out;
}

/**
 * Contract on the member's own lines, or in the comment block
 * directly above the declaration (the walk stops at the first line
 * carrying code, so a contract never leaks past one member).
 */
std::string
contractNear(const FileCtx &ctx, int name_line, int decl_line)
{
    auto at = [&](int line) -> const std::string * {
        auto it = ctx.mo_contracts.find(line);
        return it != ctx.mo_contracts.end() ? &it->second : nullptr;
    };
    for (int line : {name_line, decl_line})
        if (const std::string *r = at(line))
            return *r;
    for (int l = decl_line - 1; l >= 1; --l) {
        if (const std::string *r = at(l))
            return *r;
        if (ctx.code_lines.count(l))
            break;
    }
    return "";
}

/** Phase A: collect contracted atomic members of @p ctx. */
void
collectMembers(const FileCtx &ctx,
               std::map<std::string, Member> &members,
               std::vector<Finding> &out)
{
    ScopeTracker scopes(ctx.toks);
    int paren = 0; // parameter lists at class scope are not members
    for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
        scopes.step(i);
        const Token &t = ctx.toks[i];
        if (t.text == "(")
            ++paren;
        else if (t.text == ")" && paren > 0)
            --paren;
        if (paren > 0 || t.kind != Token::Kind::Ident
            || (t.text != "atomic" && t.text != "atomic_flag"))
            continue;
        const ScopeTracker::Scope *in = scopes.innermost();
        if (in == nullptr
            || in->kind != ScopeTracker::Scope::Kind::Class)
            continue;
        // `using X = std::atomic<...>` is a type alias, not a member.
        std::size_t head = i;
        if (head >= 2 && ctx.toks[head - 1].text == "::"
            && ctx.toks[head - 2].text == "std")
            head -= 2;
        if (head > 0 && ctx.toks[head - 1].text == "=")
            continue;
        std::size_t j = i + 1;
        if (j < ctx.toks.size() && ctx.toks[j].text == "<") {
            int angle = 0;
            for (; j < ctx.toks.size(); ++j) {
                if (ctx.toks[j].text == "<")
                    ++angle;
                else if (ctx.toks[j].text == ">" && --angle == 0) {
                    ++j;
                    break;
                }
            }
        }
        std::string name;
        int name_line = t.line;
        std::string stop;
        for (; j < ctx.toks.size(); ++j) {
            const std::string &s = ctx.toks[j].text;
            if (s == ";" || s == "=" || s == "{" || s == "(") {
                stop = s;
                break;
            }
            if (ctx.toks[j].kind == Token::Kind::Ident) {
                name = s;
                name_line = ctx.toks[j].line;
            }
        }
        if (name.empty() || stop == "(") // member function decl
            continue;
        std::string role = contractNear(ctx, name_line, t.line);
        if (role.empty()) {
            report(out, ctx, "atomic-order", name_line,
                   "atomic member '" + name
                       + "' has no '// glider-mo: <role>' contract "
                         "comment (roles: "
                       + joinRoles() + ")");
        } else if (roleVocabulary().count(role) == 0) {
            report(out, ctx, "atomic-order", name_line,
                   "glider-mo role '" + role + "' on '" + name
                       + "' is not in the contract vocabulary ("
                       + joinRoles() + ")");
            role.clear();
        }
        members.emplace(name,
                        Member{name, in->name, role});
    }
}

/** Phase B: check every use in @p ctx against the contract table. */
void
checkUses(const FileCtx &ctx,
          const std::map<std::string, Member> &members,
          std::vector<Finding> &out)
{
    ScopeTracker scopes(ctx.toks);
    for (std::size_t i = 0; i < ctx.toks.size(); ++i) {
        scopes.step(i);
        const Token &t = ctx.toks[i];
        if (t.kind != Token::Kind::Ident)
            continue;

        // Explicit member operation: recv . op ( ... )
        if (isAtomicOp(t.text) && i >= 2 && i + 1 < ctx.toks.size()
            && ctx.toks[i + 1].text == "("
            && (ctx.toks[i - 1].text == "."
                || ctx.toks[i - 1].text == "->")) {
            // Receiver: the ident before '.'/'->', skipping one
            // balanced subscript (done_ptr_[j]->fetch_add).
            std::size_t r = i - 2;
            if (ctx.toks[r].text == "]") {
                int depth = 0;
                while (r > 0) {
                    if (ctx.toks[r].text == "]")
                        ++depth;
                    else if (ctx.toks[r].text == "["
                             && --depth == 0)
                        break;
                    --r;
                }
                if (r == 0)
                    continue;
                --r;
            }
            if (ctx.toks[r].kind != Token::Kind::Ident)
                continue;
            auto mi = members.find(ctx.toks[r].text);
            if (mi == members.end())
                continue;
            const Member &m = mi->second;
            std::vector<std::string> orders =
                ordersInArgs(ctx, i + 1);
            if (orders.empty()) {
                report(out, ctx, "atomic-order", t.line,
                       "'" + m.name + "." + t.text
                           + "()' has no explicit std::memory_order "
                             "argument (implicit seq_cst)");
                continue;
            }
            if (m.role.empty())
                continue;
            const std::set<std::string> &ok =
                roleVocabulary().at(m.role);
            for (const std::string &o : orders) {
                if (ok.count(o) == 0)
                    report(out, ctx, "atomic-order", t.line,
                           "memory_order_" + o + " on '" + m.name
                               + "' violates its glider-mo contract "
                                 "'"
                               + m.role + "'");
            }
            continue;
        }

        // Bare use of a contracted member inside its own class's
        // methods: routes through the implicit seq_cst operators.
        auto mi = members.find(t.text);
        if (mi == members.end())
            continue;
        const ScopeTracker::Scope *fn = scopes.enclosingFunction();
        if (fn == nullptr || fn->outer != mi->second.cls)
            continue;
        const std::string &nxt =
            i + 1 < ctx.toks.size() ? ctx.toks[i + 1].text : "";
        const std::string &nxt2 =
            i + 2 < ctx.toks.size() ? ctx.toks[i + 2].text : "";
        const Token *prev = i > 0 ? &ctx.toks[i - 1] : nullptr;
        if (nxt == "." || nxt == "->" || nxt == "(" || nxt == "{"
            || nxt == "[")
            continue; // declaration, init, or explicit member op
        if (prev != nullptr
            && (prev->text == "." || prev->text == "->"
                || prev->text == "::" || prev->text == "&"
                || prev->text == ">"
                || prev->kind == Token::Kind::Ident))
            continue; // other object's member, address-of, or decl
        const std::string &name = mi->second.name;
        if (nxt == "=" && nxt2 != "=") {
            report(out, ctx, "atomic-order", t.line,
                   "'" + name
                       + " = ...' stores through the implicit "
                         "seq_cst operator=; use .store() with an "
                         "explicit order");
        } else if ((nxt == "+" && nxt2 == "+")
                   || (nxt == "-" && nxt2 == "-")
                   || (prev != nullptr && i >= 2
                       && ((prev->text == "+"
                            && ctx.toks[i - 2].text == "+")
                           || (prev->text == "-"
                               && ctx.toks[i - 2].text == "-")))
                   || ((nxt == "+" || nxt == "-" || nxt == "|"
                        || nxt == "&" || nxt == "^")
                       && nxt2 == "=")) {
            report(out, ctx, "atomic-order", t.line,
                   "'" + name
                       + "' read-modify-write through an implicit "
                         "seq_cst operator; use fetch_add/fetch_sub "
                         "with an explicit order");
        } else {
            report(out, ctx, "atomic-order", t.line,
                   "'" + name
                       + "' read through the implicit seq_cst "
                         "conversion; use .load() with an explicit "
                         "order");
        }
    }
}

} // namespace

void
ruleAtomicOrder(const std::vector<FileCtx> &files,
                std::vector<Finding> &out)
{
    std::map<std::string, Member> members;
    for (const FileCtx &ctx : files)
        if (inScope(ctx.rel))
            collectMembers(ctx, members, out);
    for (const FileCtx &ctx : files)
        if (inScope(ctx.rel))
            checkUses(ctx, members, out);
}

} // namespace lint
} // namespace glider
