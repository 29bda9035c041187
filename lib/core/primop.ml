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

(** What a saturated application to literals gives: a literal, a
    boolean (the caller builds [True] or [False]) or nothing, where the
    operation is stuck. *)
type folded = Lit of Literal.t | Bool of bool | Stuck

(** How an operation computes, for a caller that resolves it once and
    applies it many times. *)
type impl =
  | Int2 of (int -> int -> int)  (** Two [Int]s to an [Int]. *)
  | Div2 of (int -> int -> int)
      (** As [Int2], but stuck when the second argument is 0. *)
  | Cmp2 of (int -> int -> bool)  (** Two [Int]s to a [Bool]. *)
  | General of (Literal.t list -> folded)  (** Any other operation. *)

(* Each operation's arithmetic, written once. *)
let impl = function
  | Add -> Int2 ( + )
  | Sub -> Int2 ( - )
  | Mul -> Int2 ( * )
  | Div -> Div2 ( / )
  | Mod -> Div2 ( mod )
  | Eq -> Cmp2 (fun (a : int) b -> a = b)
  | Ne -> Cmp2 (fun (a : int) b -> a <> b)
  | Lt -> Cmp2 (fun (a : int) b -> a < b)
  | Le -> Cmp2 (fun (a : int) b -> a <= b)
  | Gt -> Cmp2 (fun (a : int) b -> a > b)
  | Ge -> Cmp2 (fun (a : int) b -> a >= b)
  | Neg -> General (function [ Int a ] -> Lit (Int (-a)) | _ -> Stuck)
  | CharEq ->
      General (function [ Char a; Char b ] -> Bool (a = b) | _ -> Stuck)
  | Ord -> General (function [ Char c ] -> Lit (Int (Char.code c)) | _ -> Stuck)
  | Chr ->
      General
        (function
        | [ Int n ] when n >= 0 && n < 256 -> Lit (Char (Char.chr n))
        | _ -> Stuck)
  | StrLen ->
      General
        (function [ String s ] -> Lit (Int (String.length s)) | _ -> Stuck)
  | StrIdx ->
      General
        (function
        | [ String s; Int i ] when i >= 0 && i < String.length s ->
            Lit (Char s.[i])
        | _ -> Stuck)

(** Constant-fold a saturated application to literal arguments. *)
let fold op (args : Literal.t list) : folded =
  match (impl op, args) with
  | Int2 f, [ Int a; Int b ] -> Lit (Int (f a b))
  | Div2 f, [ Int a; Int b ] when b <> 0 -> Lit (Int (f a b))
  | Cmp2 f, [ Int a; Int b ] -> Bool (f a b)
  | General g, args -> g args
  | (Int2 _ | Div2 _ | Cmp2 _), _ -> Stuck
