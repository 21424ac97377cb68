(* The JSON subset the harness reads and writes: result files, the
   result line on stdout and BENCHMARK.json.  Floats print with
   all 17 significant digits, so a value read back is the value
   measured. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Object of (string * t) list

let escape s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (string_of_bool v)
  | Int v -> Buffer.add_string b (string_of_int v)
  | Float v ->
      (* JSON has no NaN or infinity; a non-finite measurement is a
         harness bug, reported as null rather than as invalid JSON. *)
      if Float.is_finite v then Buffer.add_string b (Printf.sprintf "%.17g" v)
      else Buffer.add_string b "null"
  | String s -> Buffer.add_string b (escape s)
  | List l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_string b ", ";
          write b v)
        l;
      Buffer.add_char b ']'
  | Object kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string b ", ";
          Buffer.add_string b (escape k);
          Buffer.add_string b ": ";
          write b v)
        kvs;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 1024 in
  write b v;
  Buffer.contents b

exception Parse_error of string

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail what =
    raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos))
  in
  let rec skip () =
    if !pos < n then
      match text.[!pos] with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip ()
      | _ -> ()
  in
  let expect c =
    skip ();
    if !pos < n && text.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub text !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail "bad literal"
  in
  let string_body () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = text.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then fail "unterminated escape";
          let e = text.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "short \\u escape";
              let code = int_of_string ("0x" ^ String.sub text !pos 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?'
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      &&
      match text.[!pos] with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    do
      incr pos
    done;
    let s = String.sub text start (!pos - start) in
    match int_of_string_opt s with
    | Some i when not (String.contains s '.') -> Int i
    | _ -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec value () =
    skip ();
    if !pos >= n then fail "unexpected end";
    match text.[!pos] with
    | '{' ->
        incr pos;
        skip ();
        if !pos < n && text.[!pos] = '}' then begin
          incr pos;
          Object []
        end
        else
          let rec fields acc =
            skip ();
            let k = string_body () in
            expect ':';
            let v = value () in
            skip ();
            if !pos < n && text.[!pos] = ',' then begin
              incr pos;
              fields ((k, v) :: acc)
            end
            else begin
              expect '}';
              Object (List.rev ((k, v) :: acc))
            end
          in
          fields []
    | '[' ->
        incr pos;
        skip ();
        if !pos < n && text.[!pos] = ']' then begin
          incr pos;
          List []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            if !pos < n && text.[!pos] = ',' then begin
              incr pos;
              items (v :: acc)
            end
            else begin
              expect ']';
              List (List.rev (v :: acc))
            end
          in
          items []
    | '"' -> String (string_body ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let member k = function
  | Object kvs -> List.assoc_opt k kvs
  | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None

let to_str = function String s -> Some s | _ -> None
