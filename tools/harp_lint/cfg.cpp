// CFG construction for harp-lint's flow-sensitive passes (see cfg.hpp).
#include "tools/harp_lint/cfg.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace harp::lint {
namespace {

/// Identifiers that look like `name(...)` but can never open a function
/// definition body.
bool is_non_function_keyword(const std::string& name) {
  static const std::set<std::string> kKeywords = {
      "if",     "while",   "for",          "switch",  "catch",   "return",
      "sizeof", "alignof", "alignas",      "new",     "delete",  "throw",
      "do",     "else",    "case",         "default", "static_assert",
      "decltype", "typeid", "constexpr",   "assert",  "defined", "co_await",
      "co_yield", "co_return", "requires", "noexcept"};
  if (kKeywords.count(name) > 0) return true;
  // HARP_REQUIRES(m) and friends trail a signature; taking the macro as a
  // function name would re-discover the same body as a contract-less
  // duplicate definition.
  return name.rfind("HARP_", 0) == 0;
}

/// RAII guard types whose declaration acquires the lock passed as the first
/// constructor argument for the rest of the lexical scope.
bool is_raii_guard_type(const std::string& name) {
  return name == "MutexLock" || name == "lock_guard" || name == "unique_lock" ||
         name == "scoped_lock";
}

/// Index of the token matching an opening bracket at `open` ("(" / "[" / "{"),
/// treating all three bracket kinds as one balanced family. Returns `limit`
/// if unbalanced (truncated/macro-mangled input): callers clamp.
std::size_t match_bracket(const std::vector<Token>& t, std::size_t open, std::size_t limit) {
  int depth = 0;
  for (std::size_t i = open; i < limit; ++i) {
    if (is(t[i], "(") || is(t[i], "[") || is(t[i], "{")) {
      ++depth;
    } else if (is(t[i], ")") || is(t[i], "]") || is(t[i], "}")) {
      if (--depth == 0) return i;
    }
  }
  return limit;
}

/// Index of the body `{` after a constructor's initializer list (`k` is
/// just past the `:`; entries are `name(init)` / `name{init}`, names maybe
/// qualified or templated), or `limit` when the tokens are no initializer
/// list — e.g. the `:` of a ternary `c ? std::string("a") : b;`, whose next
/// `{` anywhere later would otherwise become a phantom definition's body.
std::size_t skip_init_list(const std::vector<Token>& t, std::size_t k, std::size_t limit) {
  while (k < limit) {
    if (!is_ident(t[k])) return limit;
    ++k;
    while (k + 1 < limit && is(t[k], "::") && is_ident(t[k + 1])) k += 2;
    if (k < limit && is(t[k], "<")) {  // templated base: `Base<T>(init)`
      int angles = 0;
      for (; k < limit; ++k) {
        if (is(t[k], "<")) ++angles;
        if (is(t[k], ">") && --angles == 0) break;
      }
      ++k;
    }
    if (k >= limit || !(is(t[k], "(") || is(t[k], "{"))) return limit;
    k = match_bracket(t, k, limit) + 1;
    while (k < limit && (is(t[k], "...") || is(t[k], "."))) ++k;  // pack expansion
    if (k < limit && is(t[k], "{")) return k;
    if (k >= limit || !is(t[k], ",")) return limit;
    ++k;
  }
  return limit;
}

}  // namespace

std::string normalize_lock_expr(const std::vector<Token>& tokens, std::size_t begin,
                                std::size_t end) {
  std::string out;
  for (std::size_t i = begin; i < end && i < tokens.size(); ++i) {
    if (is_ident(tokens[i]) && tokens[i].text == "this" && i + 1 < end &&
        is(tokens[i + 1], "->")) {
      ++i;  // `this->m` and `m` name the same member capability
      continue;
    }
    if (is(tokens[i], "&") && out.empty()) continue;  // `&m` passed by address
    out += tokens[i].text;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Function discovery
// ---------------------------------------------------------------------------

std::vector<ClassOpen> find_class_opens(const std::vector<Token>& tokens) {
  std::vector<ClassOpen> class_opens;
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
    if (!is_ident(tokens[i]) || (tokens[i].text != "class" && tokens[i].text != "struct"))
      continue;
    if (i > 0 && is_ident(tokens[i - 1]) && tokens[i - 1].text == "enum") continue;
    // Find the declared name: last identifier before { ; ( : (base clause).
    std::string name;
    std::size_t j = i + 1;
    for (; j < tokens.size(); ++j) {
      const Token& t = tokens[j];
      if (is(t, "{") || is(t, ";") || is(t, "(") || is(t, ":") || is(t, "=")) break;
      if (is(t, "<")) {  // template argument list in a specialisation
        int angles = 0;
        for (; j < tokens.size(); ++j) {
          if (is(tokens[j], "<")) ++angles;
          if (is(tokens[j], ">") && --angles == 0) break;
        }
        continue;
      }
      if (is_ident(t)) name = t.text;
    }
    if (j < tokens.size() && is(tokens[j], ":")) {  // skip base clause
      for (; j < tokens.size(); ++j)
        if (is(tokens[j], "{") || is(tokens[j], ";")) break;
    }
    if (j < tokens.size() && is(tokens[j], "{") && !name.empty())
      class_opens.push_back(ClassOpen{j, name});
  }
  return class_opens;
}

std::vector<FunctionDef> extract_functions(const std::vector<Token>& tokens) {
  std::vector<FunctionDef> out;
  std::vector<ClassOpen> class_opens = find_class_opens(tokens);
  std::vector<std::pair<int, std::string>> class_stack;  // (depth at open, name)
  int depth = 0;
  std::size_t next_class = 0;

  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const Token& tok = tokens[i];
    if (is(tok, "{")) {
      ++depth;
      while (next_class < class_opens.size() && class_opens[next_class].brace < i) ++next_class;
      if (next_class < class_opens.size() && class_opens[next_class].brace == i) {
        class_stack.emplace_back(depth, class_opens[next_class].name);
        ++next_class;
      }
      continue;
    }
    if (is(tok, "}")) {
      if (!class_stack.empty() && class_stack.back().first == depth) class_stack.pop_back();
      if (depth > 0) --depth;
      continue;
    }
    if (!is(tok, "(") || i == 0 || !is_ident(tokens[i - 1])) continue;
    if (is_non_function_keyword(tokens[i - 1].text)) continue;

    // Candidate: `name (` — resolve qualification and trailing specifiers.
    std::size_t name_idx = i - 1;
    std::string name = tokens[name_idx].text;
    bool is_dtor = name_idx > 0 && is(tokens[name_idx - 1], "~");
    std::string qualifier;  // Class in `Class::name(...)` out-of-line defs
    {
      std::size_t q = is_dtor ? name_idx - 1 : name_idx;
      while (q >= 2 && is(tokens[q - 1], "::") && is_ident(tokens[q - 2])) {
        qualifier = tokens[q - 2].text;
        q -= 2;
      }
    }

    std::size_t close = match_bracket(tokens, i, tokens.size());
    if (close >= tokens.size()) continue;

    // Walk specifiers after the parameter list looking for the body "{".
    FunctionDef def;
    std::size_t k = close + 1;
    bool ok = true;
    bool saw_init_list = false;
    while (k < tokens.size()) {
      const Token& t = tokens[k];
      if (is(t, "{")) break;  // body
      if (is(t, ";") || is(t, "=") || is(t, ",") || is(t, ")")) {
        ok = false;  // declaration, `= default/delete/0`, or a plain call
        break;
      }
      if (is_ident(t)) {
        const std::string& s = t.text;
        if (s == "const" || s == "override" || s == "final" || s == "mutable" ||
            s == "volatile" || s == "try") {
          ++k;
          continue;
        }
        if (s == "noexcept") {
          ++k;
          if (k < tokens.size() && is(tokens[k], "("))
            k = match_bracket(tokens, k, tokens.size()) + 1;
          continue;
        }
        if (s == "HARP_NO_THREAD_SAFETY_ANALYSIS") {
          def.no_thread_safety_analysis = true;
          ++k;
          continue;
        }
        if (s.rfind("HARP_", 0) == 0) {  // attribute-style macro (…(args)?)
          bool requires_macro = s == "HARP_REQUIRES" || s == "HARP_REQUIRES_SHARED";
          ++k;
          if (k < tokens.size() && is(tokens[k], "(")) {
            std::size_t macro_close = match_bracket(tokens, k, tokens.size());
            if (requires_macro) {
              // Comma-split the top-level args: one lock expr each.
              std::size_t arg_begin = k + 1;
              int d = 0;
              for (std::size_t a = k + 1; a <= macro_close && a < tokens.size(); ++a) {
                bool top_comma = d == 0 && is(tokens[a], ",");
                if (is(tokens[a], "(") || is(tokens[a], "[")) ++d;
                if (is(tokens[a], ")") || is(tokens[a], "]")) --d;
                if (top_comma || a == macro_close) {
                  if (a > arg_begin)
                    def.requires_locks.push_back(normalize_lock_expr(tokens, arg_begin, a));
                  arg_begin = a + 1;
                }
              }
            }
            k = macro_close + 1;
          }
          continue;
        }
        ok = false;  // e.g. `name(...)` followed by another identifier: a decl
        break;
      }
      if (is(t, "->")) {  // trailing return type: skip to "{" or ";"
        ++k;
        while (k < tokens.size() && !is(tokens[k], "{") && !is(tokens[k], ";")) {
          if (is(tokens[k], "(") || is(tokens[k], "["))
            k = match_bracket(tokens, k, tokens.size());
          ++k;
        }
        continue;
      }
      if (is(t, ":")) {  // ctor initializer list: `: member(init), member{init} {`
        saw_init_list = true;
        k = skip_init_list(tokens, k + 1, tokens.size());
        break;  // k is at the body "{" (or at end: no definition)
      }
      ok = false;
      break;
    }
    if (!ok || k >= tokens.size() || !is(tokens[k], "{")) continue;

    std::size_t body_close = match_bracket(tokens, k, tokens.size());
    def.name = is_dtor ? "~" + name : name;
    def.line = tokens[name_idx].line;
    def.class_name = !qualifier.empty()
                         ? qualifier
                         : (!class_stack.empty() ? class_stack.back().second : "");
    def.is_ctor_or_dtor =
        is_dtor || saw_init_list || (!def.class_name.empty() && name == def.class_name);
    def.body_begin = k + 1;
    def.body_end = std::min(body_close, tokens.size());
    out.push_back(def);
    // Keep scanning from inside the body: local structs/lambda-free helpers
    // are discovered too, and the brace bookkeeping above needs every token.
  }
  return out;
}

// ---------------------------------------------------------------------------
// CFG builder
// ---------------------------------------------------------------------------

namespace {

class CfgBuilder {
 public:
  CfgBuilder(const std::vector<Token>& tokens, std::size_t begin, std::size_t end)
      : t_(tokens), pos_(begin), end_(std::min(end, tokens.size())) {
    cfg_.blocks.emplace_back();  // entry = 0
    cfg_.blocks.emplace_back();  // exit = 1, kept empty
    cfg_.exit = 1;
    cur_ = 0;
  }

  Cfg build() {
    scopes_.emplace_back();
    parse_stmt_list(end_);
    emit_releases_down_to(0, end_);
    scopes_.pop_back();
    edge(cur_, cfg_.exit);
    return std::move(cfg_);
  }

 private:
  struct JumpCtx {
    int target = 0;
    std::size_t scope_depth = 0;  // scopes_ size at loop entry
  };

  int new_block() {
    cfg_.blocks.emplace_back();
    return static_cast<int>(cfg_.blocks.size()) - 1;
  }

  void edge(int from, int to) {
    std::vector<int>& succ = cfg_.blocks[static_cast<std::size_t>(from)].succ;
    if (std::find(succ.begin(), succ.end(), to) == succ.end()) succ.push_back(to);
  }

  void append_stmt(std::size_t begin, std::size_t end) {
    if (begin >= end) return;
    CfgStmt s;
    s.begin = begin;
    s.end = end;
    detect_raii_guard(s);
    cfg_.blocks[static_cast<std::size_t>(cur_)].stmts.push_back(std::move(s));
  }

  /// `MutexLock l(m);` / `std::lock_guard<std::mutex> l(m);` → mark the
  /// statement as an acquire and register the lock with the current scope.
  void detect_raii_guard(CfgStmt& s) {
    std::size_t i = s.begin;
    while (i + 1 < s.end && is_ident(t_[i]) && is(t_[i + 1], "::")) i += 2;  // harp::, std::
    if (i >= s.end || !is_ident(t_[i]) || !is_raii_guard_type(t_[i].text)) return;
    ++i;
    if (i < s.end && is(t_[i], "<")) {  // template args
      int d = 0;
      for (; i < s.end; ++i) {
        if (is(t_[i], "<")) ++d;
        if (is(t_[i], ">") && --d == 0) break;
      }
      ++i;
    }
    if (i >= s.end || !is_ident(t_[i])) return;  // variable name
    ++i;
    if (i >= s.end || (!is(t_[i], "(") && !is(t_[i], "{"))) return;
    std::size_t close = match_bracket(t_, i, s.end);
    // First top-level constructor argument is the lock expression (scoped_lock
    // with several locks: register each).
    std::size_t arg_begin = i + 1;
    int d = 0;
    for (std::size_t a = i + 1; a <= close && a < s.end; ++a) {
      bool top_comma = d == 0 && is(t_[a], ",");
      if (is(t_[a], "(") || is(t_[a], "[") || is(t_[a], "{")) ++d;
      if (is(t_[a], ")") || is(t_[a], "]") || is(t_[a], "}")) --d;
      if (top_comma || a == close) {
        if (a > arg_begin) {
          std::string expr = normalize_lock_expr(t_, arg_begin, a);
          if (!expr.empty()) {
            if (s.acquire.empty())
              s.acquire = expr;
            else
              s.acquire += "," + expr;
            scopes_.back().push_back(expr);
          }
        }
        arg_begin = a + 1;
      }
    }
  }

  /// Emit synthetic release statements into `cur_` for every RAII lock in
  /// scopes deeper than `keep_depth` (in reverse acquisition order). Does not
  /// pop the scopes: early exits leave them live for the fall-through path.
  void emit_releases_down_to(std::size_t keep_depth, std::size_t at_tok) {
    for (std::size_t s = scopes_.size(); s > keep_depth; --s) {
      const std::vector<std::string>& locks = scopes_[s - 1];
      for (std::size_t l = locks.size(); l > 0; --l) {
        CfgStmt rel;
        rel.begin = rel.end = std::min(at_tok, end_);
        rel.release = locks[l - 1];
        cfg_.blocks[static_cast<std::size_t>(cur_)].stmts.push_back(std::move(rel));
      }
    }
  }

  /// End of a plain statement starting at `from`: the ";" at bracket depth 0,
  /// with balanced {...} (lambdas, brace-init) absorbed.
  std::size_t scan_stmt_end(std::size_t from, std::size_t limit) {
    int depth = 0;
    for (std::size_t i = from; i < limit; ++i) {
      if (is(t_[i], "{")) {
        i = match_bracket(t_, i, limit);
        continue;
      }
      if (is(t_[i], "(") || is(t_[i], "[")) ++depth;
      else if (is(t_[i], ")") || is(t_[i], "]")) --depth;
      else if (depth <= 0 && is(t_[i], ";")) return i;
    }
    return limit;
  }

  void parse_stmt_list(std::size_t limit) {
    while (pos_ < limit) parse_stmt(limit);
  }

  void parse_stmt(std::size_t limit) {
    const Token& tok = t_[pos_];
    if (is(tok, ";")) {
      ++pos_;
      return;
    }
    if (is(tok, "{")) {
      std::size_t close = std::min(match_bracket(t_, pos_, limit), limit);
      scopes_.emplace_back();
      ++pos_;
      parse_stmt_list(close);
      emit_releases_down_to(scopes_.size() - 1, close);
      scopes_.pop_back();
      pos_ = close + 1;
      return;
    }
    if (is_ident(tok)) {
      const std::string& s = tok.text;
      if (s == "if") return parse_if(limit);
      if (s == "while") return parse_while(limit);
      if (s == "for") return parse_for(limit);
      if (s == "do") return parse_do(limit);
      if (s == "switch") return parse_switch(limit);
      if (s == "return") return parse_jump_to(cfg_.exit, 0, limit);
      if (s == "break" && !breaks_.empty())
        return parse_jump_to(breaks_.back().target, breaks_.back().scope_depth, limit);
      if (s == "continue" && !continues_.empty())
        return parse_jump_to(continues_.back().target, continues_.back().scope_depth, limit);
      if (s == "else") {  // dangling else from a macro-mangled if: skip token
        ++pos_;
        return;
      }
      if (s == "case" || s == "default") {  // label outside a switch body: skip
        while (pos_ < limit && !is(t_[pos_], ":")) ++pos_;
        if (pos_ < limit) ++pos_;
        return;
      }
    }
    std::size_t semi = scan_stmt_end(pos_, limit);
    append_stmt(pos_, semi);
    pos_ = std::min(semi + 1, limit);
  }

  /// return / break / continue: the expression's reads happen while all
  /// current locks are held, then scopes unwind, then control jumps.
  void parse_jump_to(int target, std::size_t keep_depth, std::size_t limit) {
    std::size_t semi = scan_stmt_end(pos_, limit);
    append_stmt(pos_, semi);
    emit_releases_down_to(keep_depth, semi);
    edge(cur_, target);
    cur_ = new_block();  // unreachable continuation; dataflow gives it TOP
    pos_ = std::min(semi + 1, limit);
  }

  /// Condition in parens after the keyword at pos_; appends it as a statement
  /// of block `into` and leaves pos_ just past the ")".
  void parse_condition(int into, std::size_t limit) {
    while (pos_ < limit && !is(t_[pos_], "(")) ++pos_;  // skips `constexpr`
    if (pos_ >= limit) return;
    std::size_t close = std::min(match_bracket(t_, pos_, limit), limit);
    int saved = cur_;
    cur_ = into;
    append_stmt(pos_ + 1, close);
    cur_ = saved;
    pos_ = std::min(close + 1, limit);
  }

  void parse_if(std::size_t limit) {
    ++pos_;
    parse_condition(cur_, limit);
    int head = cur_;
    int then_entry = new_block();
    edge(head, then_entry);
    cur_ = then_entry;
    parse_stmt(limit);
    int then_end = cur_;
    if (pos_ < limit && is_ident(t_[pos_]) && t_[pos_].text == "else") {
      ++pos_;
      int else_entry = new_block();
      edge(head, else_entry);
      cur_ = else_entry;
      parse_stmt(limit);
      int else_end = cur_;
      int join = new_block();
      edge(then_end, join);
      edge(else_end, join);
      cur_ = join;
    } else {
      int join = new_block();
      edge(then_end, join);
      edge(head, join);
      cur_ = join;
    }
  }

  void parse_while(std::size_t limit) {
    ++pos_;
    int head = new_block();
    edge(cur_, head);
    parse_condition(head, limit);
    int body = new_block();
    int exit_b = new_block();
    edge(head, body);
    edge(head, exit_b);
    breaks_.push_back({exit_b, scopes_.size()});
    continues_.push_back({head, scopes_.size()});
    cur_ = body;
    parse_stmt(limit);
    edge(cur_, head);
    breaks_.pop_back();
    continues_.pop_back();
    cur_ = exit_b;
  }

  void parse_do(std::size_t limit) {
    ++pos_;
    int body = new_block();
    int cond = new_block();
    int exit_b = new_block();
    edge(cur_, body);
    breaks_.push_back({exit_b, scopes_.size()});
    continues_.push_back({cond, scopes_.size()});
    cur_ = body;
    parse_stmt(limit);
    edge(cur_, cond);
    breaks_.pop_back();
    continues_.pop_back();
    if (pos_ < limit && is_ident(t_[pos_]) && t_[pos_].text == "while") {
      ++pos_;
      parse_condition(cond, limit);
      if (pos_ < limit && is(t_[pos_], ";")) ++pos_;
    }
    edge(cond, body);
    edge(cond, exit_b);
    cur_ = exit_b;
  }

  void parse_for(std::size_t limit) {
    ++pos_;
    while (pos_ < limit && !is(t_[pos_], "(")) ++pos_;
    if (pos_ >= limit) return;
    std::size_t open = pos_;
    std::size_t close = std::min(match_bracket(t_, open, limit), limit);

    // Locate the two top-level ";" — absent means range-for.
    std::vector<std::size_t> semis;
    int d = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
      if (is(t_[i], "(") || is(t_[i], "[") || is(t_[i], "{")) ++d;
      else if (is(t_[i], ")") || is(t_[i], "]") || is(t_[i], "}")) --d;
      else if (d == 0 && is(t_[i], ";")) semis.push_back(i);
    }

    scopes_.emplace_back();  // init declarations live until the loop exits
    int head = new_block();
    int latch;
    if (semis.size() >= 2) {
      append_stmt(open + 1, semis[0]);  // init runs in the predecessor block
      edge(cur_, head);
      cur_ = head;
      append_stmt(semis[0] + 1, semis[1]);  // condition
      latch = new_block();
      int saved = cur_;
      cur_ = latch;
      append_stmt(semis[1] + 1, close);  // step
      cur_ = saved;
    } else {  // range-for: the whole header reads its range every iteration
      edge(cur_, head);
      cur_ = head;
      append_stmt(open + 1, close);
      latch = head;  // no step block; continue re-evaluates the header
    }
    int body = new_block();
    int exit_b = new_block();
    edge(head, body);
    edge(head, exit_b);
    if (latch != head) edge(latch, head);
    breaks_.push_back({exit_b, scopes_.size() - 1});
    continues_.push_back({latch, scopes_.size() - 1});
    cur_ = body;
    pos_ = std::min(close + 1, limit);
    parse_stmt(limit);
    edge(cur_, latch);
    breaks_.pop_back();
    continues_.pop_back();
    cur_ = exit_b;
    emit_releases_down_to(scopes_.size() - 1, close);
    scopes_.pop_back();
  }

  void parse_switch(std::size_t limit) {
    ++pos_;
    parse_condition(cur_, limit);
    int head = cur_;
    if (pos_ >= limit || !is(t_[pos_], "{")) return;  // unbraced switch: skip
    std::size_t close = std::min(match_bracket(t_, pos_, limit), limit);
    ++pos_;
    int exit_b = new_block();
    breaks_.push_back({exit_b, scopes_.size()});
    scopes_.emplace_back();
    bool saw_default = false;
    bool in_arm = false;  // false until the first case label
    while (pos_ < close) {
      const Token& tok = t_[pos_];
      if (is_ident(tok) && (tok.text == "case" || tok.text == "default")) {
        saw_default = saw_default || tok.text == "default";
        while (pos_ < close && !is(t_[pos_], ":")) ++pos_;
        if (pos_ < close) ++pos_;
        // Consecutive labels extend the same arm; otherwise start a new arm
        // with a fallthrough edge from the previous one.
        if (!in_arm || !cfg_.blocks[static_cast<std::size_t>(cur_)].stmts.empty() ||
            cur_ == head) {
          int arm = new_block();
          edge(head, arm);
          if (in_arm) edge(cur_, arm);  // fallthrough
          cur_ = arm;
          in_arm = true;
        } else {
          edge(head, cur_);  // empty arm gaining another label
        }
        continue;
      }
      if (!in_arm) {  // statements before any label are unreachable
        cur_ = new_block();
        in_arm = true;
      }
      parse_stmt(close);
    }
    edge(cur_, exit_b);
    if (!saw_default) edge(head, exit_b);
    cur_ = exit_b;
    emit_releases_down_to(scopes_.size() - 1, close);
    scopes_.pop_back();
    breaks_.pop_back();
    pos_ = close + 1;
  }

  const std::vector<Token>& t_;
  std::size_t pos_;
  std::size_t end_;
  Cfg cfg_;
  int cur_ = 0;
  std::vector<std::vector<std::string>> scopes_;
  std::vector<JumpCtx> breaks_;
  std::vector<JumpCtx> continues_;
};

}  // namespace

Cfg build_cfg(const std::vector<Token>& tokens, std::size_t body_begin, std::size_t body_end) {
  return CfgBuilder(tokens, body_begin, body_end).build();
}

std::string describe(const Cfg& cfg) {
  std::ostringstream out;
  for (std::size_t b = 0; b < cfg.blocks.size(); ++b) {
    if (b) out << "; ";
    out << "b" << b << "[s" << cfg.blocks[b].stmts.size() << "]";
    if (!cfg.blocks[b].succ.empty()) {
      out << " ->";
      for (int s : cfg.blocks[b].succ) out << " b" << s;
    }
  }
  return out.str();
}

}  // namespace harp::lint
