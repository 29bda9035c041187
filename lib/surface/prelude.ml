(** The standard prelude: list and arithmetic combinators every surface
    program may use, written in the surface language itself.

    Note the programming style: local tail-recursive loops ([let rec go
    ... in go ...]) exactly as in the paper's [find] example (Sec. 5) —
    these are the bindings contification turns into join points. *)

let source =
  {|
-- Basic combinators ---------------------------------------------------
def id x = x
def const x y = x
def compose f g x = f (g x)
def flip f x y = f y x

def not b = if b then False else True
def even n = n % 2 == 0
def odd n = n % 2 /= 0
def min2 a b = if a <= b then a else b
def max2 a b = if a >= b then a else b
def abs n = if n < 0 then 0 - n else n

def fst p = case p of { (a, b) -> a }
def snd p = case p of { (a, b) -> b }

-- Maybe ---------------------------------------------------------------
def isNothing m = case m of { Nothing -> True; Just x -> False }
def isJust m = case m of { Nothing -> False; Just x -> True }
def fromMaybe d m = case m of { Nothing -> d; Just x -> x }
def mHead xs = case xs of { Nil -> Nothing; Cons x rest -> Just x }

-- Lists ---------------------------------------------------------------
def null xs = isNothing (mHead xs)

def map f xs = case xs of {
  Nil -> Nil;
  Cons x rest -> Cons (f x) (map f rest)
}

def append xs ys = case xs of {
  Nil -> ys;
  Cons x rest -> Cons x (append rest ys)
}

def filter p xs = case xs of {
  Nil -> Nil;
  Cons x rest -> if p x then Cons x (filter p rest) else filter p rest
}

def foldr f z xs = case xs of {
  Nil -> z;
  Cons x rest -> f x (foldr f z rest)
}

def foldl f z xs =
  let rec go acc ys = case ys of {
    Nil -> acc;
    Cons x rest -> go (f acc x) rest
  } in go z xs

def sum xs =
  let rec go acc ys = case ys of {
    Nil -> acc;
    Cons x rest -> go (acc + x) rest
  } in go 0 xs

def product xs =
  let rec go acc ys = case ys of {
    Nil -> acc;
    Cons x rest -> go (acc * x) rest
  } in go 1 xs

def length xs =
  let rec go acc ys = case ys of {
    Nil -> acc;
    Cons x rest -> go (acc + 1) rest
  } in go 0 xs

def enumFromTo lo hi =
  if lo > hi then Nil else Cons lo (enumFromTo (lo + 1) hi)

def replicate n x = if n <= 0 then Nil else Cons x (replicate (n - 1) x)

def take n xs = case xs of {
  Nil -> Nil;
  Cons x rest -> if n <= 0 then Nil else Cons x (take (n - 1) rest)
}

def drop n xs =
  if n <= 0 then xs
  else case xs of { Nil -> Nil; Cons x rest -> drop (n - 1) rest }

def reverse xs =
  let rec go acc ys = case ys of {
    Nil -> acc;
    Cons x rest -> go (Cons x acc) rest
  } in go Nil xs

def zip xs ys = case xs of {
  Nil -> Nil;
  Cons x xrest -> case ys of {
    Nil -> Nil;
    Cons y yrest -> Cons (x, y) (zip xrest yrest)
  }
}

def zipWith f xs ys = case xs of {
  Nil -> Nil;
  Cons x xrest -> case ys of {
    Nil -> Nil;
    Cons y yrest -> Cons (f x y) (zipWith f xrest yrest)
  }
}

def concatMap f xs = case xs of {
  Nil -> Nil;
  Cons x rest -> append (f x) (concatMap f rest)
}

-- Searching: the paper's Sec. 5 example, verbatim style ---------------
def find p xs =
  let rec go ys = case ys of {
    Cons x rest -> if p x then Just x else go rest;
    Nil -> Nothing
  } in go xs

def any p xs = case find p xs of { Just x -> True; Nothing -> False }
def all p xs = not (any (\x -> not (p x)) xs)
def elem x xs = any (\y -> y == x) xs

def lookupList k kvs =
  let rec go ys = case ys of {
    Nil -> Nothing;
    Cons p rest -> case p of { (k2, v) -> if k2 == k then Just v else go rest }
  } in go kvs
|}

(* Lines that precede the program's first line: the prelude's and the
   newline [compile] puts after it. *)
let lines =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 1 source

(** [compile src]: compile the prelude followed by [src]. The lex, parse
    and type errors it raises carry [src]'s own line numbers. *)
let compile ?(datacons = Fj_core.Datacon.builtins) (src : string) =
  let own (p : Ast.pos) =
    if p.line > lines then { p with line = p.line - lines } else p
  in
  match Infer.compile ~datacons (source ^ "\n" ^ src) with
  | r -> r
  | exception Lexer.Lex_error (m, p) -> raise (Lexer.Lex_error (m, own p))
  | exception Parser.Parse_error (m, p) -> raise (Parser.Parse_error (m, own p))
  | exception Infer.Type_error (m, p) -> raise (Infer.Type_error (m, own p))
