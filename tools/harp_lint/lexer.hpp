// Minimal C++ lexer for harp-lint. Produces a flat token stream (identifiers,
// numbers, literals, punctuation) plus the side channels the rules need:
// comments (carrying suppression directives and fixture `expect:`
// annotations) and quoted #include directives (for the layering rule).
//
// Deliberately not a full C++ lexer: preprocessor conditionals are not
// evaluated (all branches are scanned), digraphs/trigraphs are ignored, and
// numeric literals are lexed loosely. harp-lint's rules are token-pattern
// heuristics validated by fixtures, not a compiler front end.
#pragma once

#include <string>
#include <vector>

namespace harp::lint {

enum class TokKind { kIdent, kNumber, kString, kPunct };

struct Token {
  TokKind kind = TokKind::kPunct;
  std::string text;
  int line = 1;
};

struct Comment {
  int line = 1;
  std::string text;  ///< body without the // or /* */ markers
};

struct Include {
  int line = 1;
  std::string path;  ///< quoted form only ("..."); angle includes are skipped
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<Include> includes;
};

/// True when `t` is the identifier, number or punctuation `text`. A string
/// or character literal never matches: its stored body (say `{` from "{")
/// is data, not a bracket.
inline bool is(const Token& t, const char* text) {
  return t.kind != TokKind::kString && t.text == text;
}
inline bool is_ident(const Token& t) { return t.kind == TokKind::kIdent; }

/// Tokenise one translation unit. Never fails: unrecognised bytes become
/// single-character punctuation tokens.
LexedFile lex(const std::string& text);

}  // namespace harp::lint
