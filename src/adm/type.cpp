#include "adm/type.h"

#include <algorithm>

namespace asterix::adm {

TypePtr Type::Any() {
  static TypePtr any = [] {
    auto t = std::shared_ptr<Type>(new Type());
    t->kind_ = TypeKind::kAny;
    t->name_ = "any";
    return TypePtr(t);
  }();
  return any;
}

TypePtr Type::Primitive(TypeTag tag) {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::kPrimitive;
  t->tag_ = tag;
  t->name_ = TypeTagName(tag);
  return t;
}

TypePtr Type::MakeObject(std::string name, std::vector<FieldDef> fields,
                         bool open) {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::kObject;
  t->name_ = std::move(name);
  t->fields_ = std::move(fields);
  t->open_ = open;
  return t;
}

TypePtr Type::MakeArray(TypePtr item) {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::kArray;
  t->name_ = "array";
  t->item_ = std::move(item);
  return t;
}

TypePtr Type::MakeMultiset(TypePtr item) {
  auto t = std::shared_ptr<Type>(new Type());
  t->kind_ = TypeKind::kMultiset;
  t->name_ = "multiset";
  t->item_ = std::move(item);
  return t;
}

const FieldDef* Type::FindField(const std::string& name) const {
  for (const auto& f : fields_) {
    if (f.name == name) return &f;
  }
  return nullptr;
}

namespace {
bool TagMatches(TypeTag declared, const Value& v) {
  if (v.tag() == declared) return true;
  // int promotes to a declared double field.
  if (declared == TypeTag::kDouble && v.tag() == TypeTag::kInt64) return true;
  return false;
}
}  // namespace

Status Type::Validate(const Value& v) const {
  switch (kind_) {
    case TypeKind::kAny:
      return Status::OK();
    case TypeKind::kPrimitive:
      if (!TagMatches(tag_, v)) {
        return Status::TypeMismatch(std::string("expected ") + name_ +
                                    ", got " + TypeTagName(v.tag()) + " (" +
                                    v.ToString() + ")");
      }
      return Status::OK();
    case TypeKind::kArray:
    case TypeKind::kMultiset: {
      TypeTag want = kind_ == TypeKind::kArray ? TypeTag::kArray
                                               : TypeTag::kMultiset;
      if (v.tag() != want) {
        return Status::TypeMismatch(std::string("expected ") +
                                    TypeTagName(want) + ", got " +
                                    TypeTagName(v.tag()));
      }
      if (item_ && item_->kind() != TypeKind::kAny) {
        for (const auto& item : v.items()) {
          AX_RETURN_NOT_OK(item_->Validate(item));
        }
      }
      return Status::OK();
    }
    case TypeKind::kObject: {
      if (!v.is_object()) {
        return Status::TypeMismatch("expected object of type " + name_ +
                                    ", got " + TypeTagName(v.tag()));
      }
      for (const auto& f : fields_) {
        const Value& fv = v.GetField(f.name);
        if (fv.is_missing()) {
          if (!f.optional) {
            return Status::TypeMismatch("missing required field '" + f.name +
                                        "' of type " + name_);
          }
          continue;
        }
        if (fv.is_null() && f.optional) continue;
        if (f.type) AX_RETURN_NOT_OK(f.type->Validate(fv));
      }
      if (!open_) {
        for (const auto& [fname, fv] : v.fields()) {
          if (FindField(fname) == nullptr) {
            return Status::TypeMismatch("closed type " + name_ +
                                        " does not allow field '" + fname + "'");
          }
        }
      }
      return Status::OK();
    }
  }
  return Status::OK();
}

std::string Type::ToString() const {
  switch (kind_) {
    case TypeKind::kAny:
      return "any";
    case TypeKind::kPrimitive:
      return name_;
    case TypeKind::kArray: {
      std::string out = "[";
      out.append(item_ ? item_->ToString() : std::string("any")).append("]");
      return out;
    }
    case TypeKind::kMultiset:
      return "{{" + (item_ ? item_->ToString() : std::string("any")) + "}}";
    case TypeKind::kObject: {
      std::string out = name_;
      out += open_ ? " AS {" : " AS CLOSED {";
      bool first = true;
      for (const auto& f : fields_) {
        if (!first) out += ",";
        first = false;
        out += " " + f.name + ": " +
               (f.type ? f.type->ToString() : std::string("any"));
        if (f.optional) out += "?";
      }
      out += " }";
      return out;
    }
  }
  return "?";
}

Result<TypeTag> PrimitiveTagFromName(const std::string& name) {
  std::string n;
  n.reserve(name.size());
  for (char c : name) n.push_back(static_cast<char>(std::tolower(c)));
  if (n == "int" || n == "int64" || n == "int32" || n == "int16" ||
      n == "int8" || n == "bigint") {
    return TypeTag::kInt64;
  }
  if (n == "double" || n == "float") return TypeTag::kDouble;
  if (n == "string") return TypeTag::kString;
  if (n == "boolean" || n == "bool") return TypeTag::kBoolean;
  if (n == "datetime") return TypeTag::kDatetime;
  if (n == "date") return TypeTag::kDate;
  if (n == "time") return TypeTag::kTime;
  if (n == "duration") return TypeTag::kDuration;
  if (n == "point") return TypeTag::kPoint;
  if (n == "rectangle") return TypeTag::kRectangle;
  if (n == "null") return TypeTag::kNull;
  return Status::InvalidArgument("unknown primitive type '" + name + "'");
}

}  // namespace asterix::adm
