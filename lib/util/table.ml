type align = Left | Right

type t = {
  columns : (string * align) list;
  mutable rows : string list list; (* reversed *)
}

let create ~columns = { columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.columns then
    invalid_arg "Table.add_row: cell count mismatch";
  t.rows <- cells :: t.rows

let to_string t =
  let headers = List.map fst t.columns in
  let aligns = List.map snd t.columns in
  let rows = List.rev t.rows in
  let widths =
    let update ws cells =
      List.map2 (fun w c -> max w (String.length c)) ws cells
    in
    let init = List.map String.length headers in
    List.fold_left update init rows
  in
  let pad align width cell =
    let n = width - String.length cell in
    match align with
    | Left -> cell ^ String.make n ' '
    | Right -> String.make n ' ' ^ cell
  in
  let render_cells cells =
    let padded =
      List.map2 (fun (w, a) c -> pad a w c)
        (List.combine widths aligns)
        cells
    in
    "| " ^ String.concat " | " padded ^ " |"
  in
  let rule =
    "+" ^ String.concat "+" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "+"
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (render_cells headers);
  Buffer.add_char buf '\n';
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  List.iter
    (fun row ->
      Buffer.add_string buf (render_cells row);
      Buffer.add_char buf '\n')
    rows;
  Buffer.add_string buf rule;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let print t = print_string (to_string t)

let fmt_float ?(digits = 3) x = Printf.sprintf "%.*f" digits x
