(** String codecs shared by the predicate language and the application
    simulations: URL percent-decoding (the IIS double-decode of
    Figure 7), C integer parsing with 32-bit wrap-around (the signed
    overflow of Figure 3), and printf-directive detection (the
    rpc.statd format-string check). *)

val percent_decode : string -> string
(** One pass of URL decoding: each ["%hh"] hex escape becomes its
    byte; malformed escapes pass through untouched, as IIS's decoder
    behaved.  ["..%252f"] therefore becomes ["..%2f"], and a second
    pass turns that into ["../"]. *)

val percent_decode_n : int -> string -> string
(** [n] passes of {!percent_decode}, stopping at the first pass that
    changes nothing, so a huge [n] costs no more than the string's
    escapes. *)

val percent_encode : string -> string
(** Encode every byte outside [A-Za-z0-9._~/-] as ["%hh"];
    [percent_decode (percent_encode s) = s] for all [s]. *)

val negated_decimal : string -> int -> (int * int) option
(** [negated_decimal s i] reads the decimal digits of [s] from [i] on:
    the index after them and the negation of their value, negated so
    that the magnitude of [min_int] fits.  [None] when the magnitude
    exceeds it.  Both lexers read integer literals with it. *)

val string_literal : string -> int -> (int * string, string) result
(** [string_literal s i] reads the string literal whose opening quote
    is [s.[i]], in the escaped form [%S] prints: the index after its
    closing quote and its bytes, decoded by [Scanf.unescaped], the
    exact inverse of [%S] on every byte.  [Error] names an
    unterminated literal or an escape [%S] never prints (a backslash
    before [q], a decimal escape over 255).  Both lexers read string
    literals with it. *)

val parse_integer : string -> int option
(** Mathematical value of an optionally-signed decimal string; [None]
    when the string is not an integer at all.  Values beyond OCaml's
    native range saturate (they are far outside int32 anyway, which is
    all the predicates ask about). *)

val atoi32 : string -> int
(** C [atoi] on a 32-bit platform: parse a leading optionally-signed
    digit run (0 when there is none) and wrap the mathematical value
    into [\[-2{^31}, 2{^31})] — the conversion that turns the
    attacker's huge [str_x] into a negative array index. *)

val wrap32 : int -> int
(** Two's-complement truncation to signed 32 bits. *)

val fits_int32 : int -> bool

val format_directives : string -> string list
(** The printf conversion directives occurring in the string, in
    order (e.g. [["%x"; "%n"]]); the paper's input-validation check
    for format-string vulnerabilities. *)

val contains_format_directive : string -> bool
