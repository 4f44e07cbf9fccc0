// Per-directory metadata table (the paper's "metatable", §III-C).
//
// A metatable holds the complete metadata of one directory: the directory's
// own inode, all dentries, and the inodes of its child *files*. Child
// directories appear only as dentries — their inodes belong to their own
// metatables (wherever those are leased). Whoever holds the directory lease
// (the "directory leader") owns this structure and serves every metadata
// operation on the directory from local memory.
//
// Not internally synchronized: the owning client guards each metatable with
// its per-directory state lock.
#pragma once

#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "meta/dentry.h"
#include "meta/inode.h"

namespace arkfs {

class Metatable {
 public:
  explicit Metatable(Inode dir_inode) : dir_inode_(std::move(dir_inode)) {}
  // A table over a copy fetched from a leader (a read delegate's slice):
  // `entries` in ListEntries order, `child_inodes` as ChildInodes lists them.
  Metatable(Inode dir_inode, std::vector<Dentry> entries,
            std::vector<Inode> child_inodes);

  const Inode& dir_inode() const { return dir_inode_; }
  Inode& mutable_dir_inode() { return dir_inode_; }

  std::size_t entry_count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  Result<Dentry> Lookup(const std::string& name) const;
  bool Contains(const std::string& name) const {
    return entries_.contains(name);
  }

  // Inserts a dentry (and, for regular files / symlinks, the child inode).
  // kExist if the name is taken.
  Status Insert(const Dentry& dentry, std::optional<Inode> child_inode);

  // Removes a dentry and any cached child inode. kNoEnt if absent.
  Status Erase(const std::string& name);

  // Child-file inode access (by ino). Directories are never stored here.
  const Inode* FindChildInode(const Uuid& ino) const;
  Inode* FindMutableChildInode(const Uuid& ino);
  void PutChildInode(Inode inode);

  // Sorted dentries (readdir order).
  std::vector<Dentry> ListEntries() const;

  // All child-file inodes (checkpointing).
  std::vector<const Inode*> ChildInodes() const;

 private:
  Inode dir_inode_;
  std::map<std::string, Dentry> entries_;
  std::unordered_map<Uuid, Inode> child_inodes_;
};

}  // namespace arkfs
