(** Primitive operations over literals.

    Primops are saturated (the elaborator eta-expands partial uses) and
    strict in all arguments. Comparison operators return the [Bool]
    datatype (constructors [True]/[False]), which are nullary and hence
    allocation-free at runtime. *)

type t =
  | Add  (** [Int -> Int -> Int] *)
  | Sub  (** [Int -> Int -> Int] *)
  | Mul  (** [Int -> Int -> Int] *)
  | Div  (** [Int -> Int -> Int]; truncating; divide-by-zero is stuck. *)
  | Mod  (** [Int -> Int -> Int] *)
  | Neg  (** [Int -> Int] *)
  | Eq  (** [Int -> Int -> Bool] *)
  | Ne  (** [Int -> Int -> Bool] *)
  | Lt  (** [Int -> Int -> Bool] *)
  | Le  (** [Int -> Int -> Bool] *)
  | Gt  (** [Int -> Int -> Bool] *)
  | Ge  (** [Int -> Int -> Bool] *)
  | CharEq  (** [Char -> Char -> Bool] *)
  | Ord  (** [Char -> Int] *)
  | Chr  (** [Int -> Char] *)
  | StrLen  (** [String -> Int] *)
  | StrIdx  (** [String -> Int -> Char]; out of bounds is stuck. *)

let all =
  [
    Add; Sub; Mul; Div; Mod; Neg; Eq; Ne; Lt; Le; Gt; Ge; CharEq; Ord; Chr;
    StrLen; StrIdx;
  ]

(** Argument types and result type. *)
let signature = function
  | Add | Sub | Mul | Div | Mod -> ([ Types.int; Types.int ], Types.int)
  | Neg -> ([ Types.int ], Types.int)
  | Eq | Ne | Lt | Le | Gt | Ge -> ([ Types.int; Types.int ], Types.bool)
  | CharEq -> ([ Types.char; Types.char ], Types.bool)
  | Ord -> ([ Types.char ], Types.int)
  | Chr -> ([ Types.int ], Types.char)
  | StrLen -> ([ Types.string ], Types.int)
  | StrIdx -> ([ Types.string; Types.int ], Types.char)

let name = function
  | Add -> "+#"
  | Sub -> "-#"
  | Mul -> "*#"
  | Div -> "/#"
  | Mod -> "%#"
  | Neg -> "neg#"
  | Eq -> "==#"
  | Ne -> "/=#"
  | Lt -> "<#"
  | Le -> "<=#"
  | Gt -> ">#"
  | Ge -> ">=#"
  | CharEq -> "eqChar#"
  | Ord -> "ord#"
  | Chr -> "chr#"
  | StrLen -> "strLen#"
  | StrIdx -> "strIdx#"

let equal (a : t) (b : t) = a = b
let pp ppf op = Fmt.string ppf (name op)

(** Constant-fold a saturated application to literal arguments.
    Returns [None] when the operation is stuck (e.g. division by zero)
    or the result is a [Bool] (which is a datatype value, handled by the
    caller via {!fold_bool}). *)
let fold_lit op (args : Literal.t list) : Literal.t option =
  match (op, args) with
  | Add, [ Int a; Int b ] -> Some (Int (a + b))
  | Sub, [ Int a; Int b ] -> Some (Int (a - b))
  | Mul, [ Int a; Int b ] -> Some (Int (a * b))
  | Div, [ Int _; Int 0 ] -> None
  | Div, [ Int a; Int b ] -> Some (Int (a / b))
  | Mod, [ Int _; Int 0 ] -> None
  | Mod, [ Int a; Int b ] -> Some (Int (a mod b))
  | Neg, [ Int a ] -> Some (Int (-a))
  | Ord, [ Char c ] -> Some (Int (Char.code c))
  | Chr, [ Int n ] when n >= 0 && n < 256 -> Some (Char (Char.chr n))
  | StrLen, [ String s ] -> Some (Int (String.length s))
  | StrIdx, [ String s; Int i ] when i >= 0 && i < String.length s ->
      Some (Char s.[i])
  | _ -> None

(** Constant-fold operations with a boolean result. *)
let fold_bool op (args : Literal.t list) : bool option =
  match (op, args) with
  | Eq, [ Int a; Int b ] -> Some (a = b)
  | Ne, [ Int a; Int b ] -> Some (a <> b)
  | Lt, [ Int a; Int b ] -> Some (a < b)
  | Le, [ Int a; Int b ] -> Some (a <= b)
  | Gt, [ Int a; Int b ] -> Some (a > b)
  | Ge, [ Int a; Int b ] -> Some (a >= b)
  | CharEq, [ Char a; Char b ] -> Some (a = b)
  | _ -> None
