// String literals that spell brackets are data, not brackets. harp-lint once
// matched the body of "{" below as an opening brace, so f's body never
// closed and the CFG builder indexed past the end of the token stream.
// Clean under every rule.
int d = 0;

void f(int x) { if (is(tok, "{")) { ++d; } }
