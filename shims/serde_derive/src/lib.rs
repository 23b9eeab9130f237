//! Offline stand-in for `serde_derive`.
//!
//! Hand-rolled `#[derive(Serialize)]` / `#[derive(Deserialize)]` for the
//! shapes the SimProf workspace uses — no `syn`/`quote` available in the
//! hermetic build, so the item token stream is parsed directly:
//!
//! * named-field structs (externally a JSON object, fields in declaration
//!   order; `#[serde(default)]` honoured on deserialize),
//! * tuple structs (newtypes transparent, wider tuples as arrays) — structs
//!   of both kinds also get direct `write_json` / `from_json` impls that
//!   stream to and from JSON text without a `Value`,
//! * enums with unit / tuple / struct variants (externally tagged exactly
//!   like real serde: `"Variant"`, `{"Variant": value}`,
//!   `{"Variant": {..fields..}}`).
//!
//! Generic type parameters are not supported (the workspace derives none);
//! the macro fails with a clear compile error if it meets one.

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// Derives the value-model `Serialize` impl.
#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match Item::parse(input) {
        Ok(item) => item.serialize_impl().parse().expect("generated Serialize impl parses"),
        Err(e) => compile_error(&e),
    }
}

/// Derives the value-model `Deserialize` impl.
#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match Item::parse(input) {
        Ok(item) => item.deserialize_impl().parse().expect("generated Deserialize impl parses"),
        Err(e) => compile_error(&e),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});").parse().expect("compile_error parses")
}

/// One field with its `#[serde(default)]` flag.
struct Field {
    name: String,
    default: bool,
}

enum Body {
    /// Named-field struct.
    Struct(Vec<Field>),
    /// Tuple struct with N fields.
    Tuple(usize),
    /// Enum: (variant name, data shape).
    Enum(Vec<(String, VariantData)>),
}

enum VariantData {
    Unit,
    Tuple(usize),
    Struct(Vec<Field>),
}

struct Item {
    name: String,
    body: Body,
}

impl Item {
    fn parse(input: TokenStream) -> Result<Self, String> {
        let tokens: Vec<TokenTree> = input.into_iter().collect();
        let mut i = 0;
        skip_attrs_and_vis(&tokens, &mut i);
        let kw = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected struct/enum, got {other:?}")),
        };
        i += 1;
        let name = match tokens.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => return Err(format!("expected item name, got {other:?}")),
        };
        i += 1;
        if matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
            return Err(format!("serde shim derive: generic type `{name}` unsupported"));
        }
        let body = match kw.as_str() {
            "struct" => match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Body::Struct(parse_named_fields(g.stream())?)
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Body::Tuple(count_top_level_fields(g.stream()))
                }
                Some(TokenTree::Punct(p)) if p.as_char() == ';' => Body::Tuple(0),
                other => return Err(format!("unsupported struct body: {other:?}")),
            },
            "enum" => match tokens.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Body::Enum(parse_variants(g.stream())?)
                }
                other => return Err(format!("expected enum body, got {other:?}")),
            },
            other => return Err(format!("cannot derive for `{other}` items")),
        };
        Ok(Self { name, body })
    }

    fn serialize_impl(&self) -> String {
        let name = &self.name;
        let body = match &self.body {
            Body::Struct(fields) => {
                let mut s = String::from("let mut __m = ::std::vec::Vec::new();\n");
                for f in fields {
                    s.push_str(&format!(
                        "__m.push(({:?}.to_string(), ::serde::Serialize::to_value(&self.{})));\n",
                        f.name, f.name
                    ));
                }
                s.push_str("::serde::Value::Object(__m)");
                s
            }
            Body::Tuple(1) => "::serde::Serialize::to_value(&self.0)".to_string(),
            Body::Tuple(n) => {
                let items: Vec<String> =
                    (0..*n).map(|i| format!("::serde::Serialize::to_value(&self.{i})")).collect();
                format!("::serde::Value::Array(vec![{}])", items.join(", "))
            }
            Body::Enum(variants) => {
                let mut arms = String::new();
                for (v, data) in variants {
                    match data {
                        VariantData::Unit => arms.push_str(&format!(
                            "{name}::{v} => ::serde::Value::String({v:?}.to_string()),\n"
                        )),
                        VariantData::Tuple(n) => {
                            let binds: Vec<String> = (0..*n).map(|i| format!("__f{i}")).collect();
                            let inner = if *n == 1 {
                                "::serde::Serialize::to_value(__f0)".to_string()
                            } else {
                                let items: Vec<String> = binds
                                    .iter()
                                    .map(|b| format!("::serde::Serialize::to_value({b})"))
                                    .collect();
                                format!("::serde::Value::Array(vec![{}])", items.join(", "))
                            };
                            arms.push_str(&format!(
                                "{name}::{v}({}) => ::serde::Value::Object(vec![({v:?}.to_string(), {inner})]),\n",
                                binds.join(", ")
                            ));
                        }
                        VariantData::Struct(fields) => {
                            let binds: Vec<String> =
                                fields.iter().map(|f| f.name.clone()).collect();
                            let pushes: Vec<String> = fields
                                .iter()
                                .map(|f| {
                                    format!(
                                        "({:?}.to_string(), ::serde::Serialize::to_value({}))",
                                        f.name, f.name
                                    )
                                })
                                .collect();
                            arms.push_str(&format!(
                                "{name}::{v} {{ {} }} => ::serde::Value::Object(vec![({v:?}.to_string(), ::serde::Value::Object(vec![{}]))]),\n",
                                binds.join(", "),
                                pushes.join(", ")
                            ));
                        }
                    }
                }
                format!("match self {{\n{arms}}}")
            }
        };
        format!(
            "impl ::serde::Serialize for {name} {{\n\
               fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
               {}\
             }}\n",
            self.direct_write_json()
        )
    }

    /// The direct `write_json` override for structs; enums keep the
    /// trait's `to_value` fallback. Writes the bytes `to_value` renders to.
    fn direct_write_json(&self) -> String {
        let body = match &self.body {
            Body::Struct(fields) => {
                let mut s = String::new();
                for (i, f) in fields.iter().enumerate() {
                    let sep = if i == 0 { "{" } else { "," };
                    s.push_str(&format!(
                        "__out.push_str({:?});\n\
                         ::serde::Serialize::write_json(&self.{}, __out);\n",
                        format!("{sep}\"{}\":", f.name),
                        f.name
                    ));
                }
                s.push_str(if fields.is_empty() {
                    "__out.push_str(\"{}\");"
                } else {
                    "__out.push('}');"
                });
                s
            }
            Body::Tuple(1) => "::serde::Serialize::write_json(&self.0, __out);".to_string(),
            Body::Tuple(n) => {
                let mut s = String::from("__out.push('[');\n");
                for i in 0..*n {
                    if i > 0 {
                        s.push_str("__out.push(',');\n");
                    }
                    s.push_str(&format!("::serde::Serialize::write_json(&self.{i}, __out);\n"));
                }
                s.push_str("__out.push(']');");
                s
            }
            Body::Enum(_) => return String::new(),
        };
        let inline = if matches!(self.body, Body::Tuple(1)) { "#[inline]\n" } else { "" };
        format!("{inline}fn write_json(&self, __out: &mut ::std::string::String) {{\n{body}\n}}\n")
    }

    fn deserialize_impl(&self) -> String {
        let name = &self.name;
        let body = match &self.body {
            Body::Struct(fields) => {
                let mut s = format!(
                    "let __obj = __v.as_object().ok_or_else(|| ::serde::DeError::msg(\
                       format!(\"{name}: expected object, got {{}}\", __v.kind())))?;\n\
                     Ok(Self {{\n"
                );
                for f in fields {
                    let missing = missing_field(name, f);
                    s.push_str(&format!(
                        "{}: match ::serde::value_get(__obj, {:?}) {{\n\
                            Some(__fv) => ::serde::Deserialize::from_value(__fv)?,\n\
                            None => {missing},\n\
                         }},\n",
                        f.name, f.name
                    ));
                }
                s.push_str("})");
                s
            }
            Body::Tuple(1) => "Ok(Self(::serde::Deserialize::from_value(__v)?))".to_string(),
            Body::Tuple(n) => {
                let mut s = format!(
                    "let __arr = __v.as_array().ok_or_else(|| ::serde::DeError::msg(\
                       format!(\"{name}: expected array, got {{}}\", __v.kind())))?;\n\
                     if __arr.len() != {n} {{\n\
                       return Err(::serde::DeError::msg(format!(\"{name}: expected {n} elements, got {{}}\", __arr.len())));\n\
                     }}\n\
                     Ok(Self("
                );
                for i in 0..*n {
                    s.push_str(&format!("::serde::Deserialize::from_value(&__arr[{i}])?, "));
                }
                s.push_str("))");
                s
            }
            Body::Enum(variants) => {
                // Externally tagged: a bare string names a unit variant; an
                // object with one entry names a data variant.
                let mut unit_arms = String::new();
                let mut data_arms = String::new();
                for (v, data) in variants {
                    match data {
                        VariantData::Unit => {
                            unit_arms.push_str(&format!("{v:?} => return Ok({name}::{v}),\n"));
                        }
                        VariantData::Tuple(1) => data_arms.push_str(&format!(
                            "{v:?} => return Ok({name}::{v}(::serde::Deserialize::from_value(__inner)?)),\n"
                        )),
                        VariantData::Tuple(n) => {
                            let mut arm = format!(
                                "{v:?} => {{\n\
                                   let __arr = __inner.as_array().ok_or_else(|| ::serde::DeError::msg(\"{name}::{v}: expected array\"))?;\n\
                                   if __arr.len() != {n} {{ return Err(::serde::DeError::msg(\"{name}::{v}: wrong arity\")); }}\n\
                                   return Ok({name}::{v}("
                            );
                            for i in 0..*n {
                                arm.push_str(&format!(
                                    "::serde::Deserialize::from_value(&__arr[{i}])?, "
                                ));
                            }
                            arm.push_str("));\n}\n");
                            data_arms.push_str(&arm);
                        }
                        VariantData::Struct(fields) => {
                            let mut arm = format!(
                                "{v:?} => {{\n\
                                   let __obj = __inner.as_object().ok_or_else(|| ::serde::DeError::msg(\"{name}::{v}: expected object\"))?;\n\
                                   return Ok({name}::{v} {{\n"
                            );
                            for f in fields {
                                let missing = missing_field(&format!("{name}::{v}"), f);
                                arm.push_str(&format!(
                                    "{}: match ::serde::value_get(__obj, {:?}) {{\n\
                                        Some(__fv) => ::serde::Deserialize::from_value(__fv)?,\n\
                                        None => {missing},\n\
                                     }},\n",
                                    f.name, f.name
                                ));
                            }
                            arm.push_str("});\n}\n");
                            data_arms.push_str(&arm);
                        }
                    }
                }
                format!(
                    "if let Some(__s) = __v.as_str() {{\n\
                       match __s {{\n{unit_arms}\
                         __other => return Err(::serde::DeError::msg(format!(\"{name}: unknown variant `{{__other}}`\"))),\n\
                       }}\n\
                     }}\n\
                     if let Some(__obj) = __v.as_object() {{\n\
                       if __obj.len() == 1 {{\n\
                         let (__tag, __inner) = &__obj[0];\n\
                         match __tag.as_str() {{\n{data_arms}\
                           __other => return Err(::serde::DeError::msg(format!(\"{name}: unknown variant `{{__other}}`\"))),\n\
                         }}\n\
                       }}\n\
                     }}\n\
                     Err(::serde::DeError::msg(format!(\"{name}: expected variant, got {{}}\", __v.kind())))"
                )
            }
        };
        format!(
            "impl ::serde::Deserialize for {name} {{\n\
               fn from_value(__v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
               {}\
             }}\n",
            self.direct_from_json()
        )
    }

    /// The direct `from_json` override for structs; enums keep the trait's
    /// `from_value` fallback. Input whose first token cannot start the
    /// struct's shape goes through `from_value` too, so its error is the
    /// value path's. Accepts exactly what `from_value` accepts: the first
    /// occurrence of a key wins, later duplicates and unknown keys are
    /// parsed (syntax-checked) and dropped, and a missing field without
    /// `#[serde(default)]` is an error.
    fn direct_from_json(&self) -> String {
        let name = &self.name;
        let body = match &self.body {
            Body::Struct(fields) => {
                let mut s = String::from(
                    "if __r.peek() != ::std::option::Option::Some(b'{') {\n\
                       return Self::from_value(&__r.value()?);\n\
                     }\n",
                );
                for i in 0..fields.len() {
                    s.push_str(&format!("let mut __f{i} = ::std::option::Option::None;\n"));
                }
                s.push_str(
                    "let mut __more = __r.begin_object()?;\n\
                     while __more {\n\
                       let __key = __r.key()?;\n\
                       match &*__key {\n",
                );
                for (i, f) in fields.iter().enumerate() {
                    s.push_str(&format!(
                        "{:?} if __f{i}.is_none() => __f{i} = ::std::option::Option::Some(::serde::Deserialize::from_json(__r)?),\n",
                        f.name
                    ));
                }
                s.push_str(
                    "_ => __r.skip_value()?,\n\
                       }\n\
                       __more = __r.object_next()?;\n\
                     }\n\
                     Ok(Self {\n",
                );
                for (i, f) in fields.iter().enumerate() {
                    let missing = missing_field(name, f);
                    s.push_str(&format!(
                        "{}: match __f{i} {{\n\
                            ::std::option::Option::Some(__fv) => __fv,\n\
                            ::std::option::Option::None => {missing},\n\
                         }},\n",
                        f.name
                    ));
                }
                s.push_str("})");
                s
            }
            Body::Tuple(1) => "Ok(Self(::serde::Deserialize::from_json(__r)?))".to_string(),
            Body::Tuple(n) => {
                let mut s = String::from(
                    "if __r.peek() != ::std::option::Option::Some(b'[') {\n\
                       return Self::from_value(&__r.value()?);\n\
                     }\n\
                     let mut __more = __r.begin_array()?;\n\
                     let __t = Self(",
                );
                for _ in 0..*n {
                    s.push_str(&format!("::serde::tuple_element(__r, &mut __more, {n})?, "));
                }
                s.push_str(&format!(");\n::serde::end_tuple(__more, {n})?;\nOk(__t)"));
                s
            }
            Body::Enum(_) => return String::new(),
        };
        // Newtypes are one call deep; let them inline into their callers.
        let inline = if matches!(self.body, Body::Tuple(1)) { "#[inline]\n" } else { "" };
        format!(
            "{inline}fn from_json(__r: &mut ::serde::JsonReader<'_>) -> ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n"
        )
    }
}

/// The expression a deserializer evaluates for an absent field `f` of
/// `owner`: its default under `#[serde(default)]`, else an early error.
fn missing_field(owner: &str, f: &Field) -> String {
    if f.default {
        "::std::default::Default::default()".to_string()
    } else {
        format!("return Err(::serde::DeError::msg(\"{owner}: missing field `{}`\"))", f.name)
    }
}

/// Skips outer attributes (`#[...]`) and a visibility modifier at `*i`.
fn skip_attrs_and_vis(tokens: &[TokenTree], i: &mut usize) {
    loop {
        match tokens.get(*i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                *i += 2; // `#` + the bracketed group
            }
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                *i += 1;
                if matches!(tokens.get(*i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    *i += 1; // pub(crate) etc.
                }
            }
            _ => return,
        }
    }
}

/// Does an attribute group (`#[serde(...)]` contents) request `default`?
fn attr_is_serde_default(tokens: &[TokenTree], i: usize) -> bool {
    let Some(TokenTree::Group(attr)) = tokens.get(i + 1) else {
        return false;
    };
    let inner: Vec<TokenTree> = attr.stream().into_iter().collect();
    let is_serde = matches!(inner.first(), Some(TokenTree::Ident(id)) if id.to_string() == "serde");
    if !is_serde {
        return false;
    }
    inner.iter().any(|t| match t {
        TokenTree::Group(g) => g
            .stream()
            .into_iter()
            .any(|t| matches!(t, TokenTree::Ident(id) if id.to_string() == "default")),
        _ => false,
    })
}

/// Parses `name: Type, ...` named fields, tracking `#[serde(default)]`.
fn parse_named_fields(stream: TokenStream) -> Result<Vec<Field>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut fields = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Attributes (collect the serde(default) flag).
        let mut default = false;
        loop {
            match tokens.get(i) {
                Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                    default |= attr_is_serde_default(&tokens, i);
                    i += 2;
                }
                Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                    i += 1;
                    if matches!(tokens.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                    {
                        i += 1;
                    }
                }
                _ => break,
            }
        }
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            if i >= tokens.len() {
                break;
            }
            return Err(format!("expected field name, got {:?}", tokens.get(i)));
        };
        fields.push(Field { name: id.to_string(), default });
        i += 1;
        // Skip `:` and the type up to a top-level comma (angle-bracket aware:
        // commas inside `<...>` belong to the type).
        let mut angle = 0i32;
        while let Some(t) = tokens.get(i) {
            match t {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                    i += 1;
                    break;
                }
                _ => {}
            }
            i += 1;
        }
    }
    Ok(fields)
}

/// Counts top-level (angle-bracket aware) comma-separated fields of a tuple
/// struct / tuple variant.
fn count_top_level_fields(stream: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    if tokens.is_empty() {
        return 0;
    }
    let mut count = 1;
    let mut angle = 0i32;
    let mut trailing_comma = false;
    for t in &tokens {
        trailing_comma = false;
        match t {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => {
                count += 1;
                trailing_comma = true;
            }
            _ => {}
        }
    }
    if trailing_comma {
        count -= 1;
    }
    count
}

/// Parses enum variants.
fn parse_variants(stream: TokenStream) -> Result<Vec<(String, VariantData)>, String> {
    let tokens: Vec<TokenTree> = stream.into_iter().collect();
    let mut variants = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        // Attributes before the variant.
        while matches!(tokens.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        let Some(TokenTree::Ident(id)) = tokens.get(i) else {
            if i >= tokens.len() {
                break;
            }
            return Err(format!("expected variant name, got {:?}", tokens.get(i)));
        };
        let name = id.to_string();
        i += 1;
        let data = match tokens.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                i += 1;
                VariantData::Struct(parse_named_fields(g.stream())?)
            }
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                VariantData::Tuple(count_top_level_fields(g.stream()))
            }
            _ => VariantData::Unit,
        };
        variants.push((name, data));
        // Skip an optional discriminant and the trailing comma.
        while let Some(t) = tokens.get(i) {
            if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
                i += 1;
                break;
            }
            i += 1;
        }
    }
    Ok(variants)
}
